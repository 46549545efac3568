// Package apps implements the MapReduce applications the paper
// evaluates (§IV.C): Random Text Writer and Distributed Grep.
//
// Every application comes in two flavours through one JobConfig: real
// execution (the map/reduce functions process actual bytes) and
// synthetic execution (the framework moves equivalent volumes), chosen
// by the Synthetic flag.
package apps

import (
	"math/rand"
	"regexp"
	"strconv"
	"time"

	"repro/internal/fsapi"
	"repro/internal/mapreduce"
)

// Words is the predefined vocabulary Random Text Writer draws from
// (the Hadoop example uses a fixed list of uncommon words).
var Words = []string{
	"diurnalness", "officiousness", "pomiferous", "unwashable", "myriapod",
	"crystallographer", "unlapsing", "pelf", "dispermy", "phytonic",
	"reformatory", "glaucopis", "hypoplastral", "unexplicit", "licitness",
	"aurigerous", "ethnocracy", "cervisial", "drainman", "eurythermal",
}

// RandomTextWriter returns the paper's first application: a map-only
// generator job where every map task writes `bytesPerMap` of random
// sentences to its own output file — the "concurrent massively
// parallel writes to different files" pattern (reduce-phase shape).
func RandomTextWriter(outputDir string, numMaps int, bytesPerMap int64, synthetic bool) mapreduce.JobConfig {
	return mapreduce.JobConfig{
		Name:       "random-text-writer",
		OutputDir:  outputDir,
		NumMaps:    numMaps,
		NumReduces: 0,
		Synthetic:  synthetic,
		Profile: mapreduce.Profile{
			GenerateBytesPerMap: bytesPerMap,
			// Text generation is cheap: ~400 MB/s per slot.
			MapCPUPerMB: 2500 * time.Microsecond,
		},
		Generate: func(task int, w fsapi.Writer) error {
			rng := rand.New(rand.NewSource(int64(task) + 1))
			var written int64
			line := make([]byte, 0, 128)
			for written < bytesPerMap {
				line = line[:0]
				sentence := 5 + rng.Intn(10)
				for i := 0; i < sentence; i++ {
					if i > 0 {
						line = append(line, ' ')
					}
					line = append(line, Words[rng.Intn(len(Words))]...)
				}
				line = append(line, '\n')
				n, err := w.Write(line)
				if err != nil {
					return err
				}
				written += int64(n)
			}
			return nil
		},
	}
}

// DistributedGrep returns the paper's second application: scan huge
// input data for occurrences of a pattern — the "concurrent reads from
// the same huge file" pattern (map-phase shape). Matching lines are
// emitted with their offsets; a single reducer concatenates them.
func DistributedGrep(input []string, outputDir, pattern string, synthetic bool) mapreduce.JobConfig {
	re := regexp.MustCompile(pattern)
	return mapreduce.JobConfig{
		Name:       "distributed-grep",
		Input:      input,
		OutputDir:  outputDir,
		NumReduces: 1,
		Synthetic:  synthetic,
		Profile: mapreduce.Profile{
			// Grep scans at ~200 MB/s per slot; nearly nothing matches.
			MapCPUPerMB:       5 * time.Millisecond,
			MapOutputRatio:    0.001,
			ReduceOutputRatio: 1.0,
			ReduceCPUPerMB:    time.Millisecond,
		},
		Map: func(off int64, record []byte, emit mapreduce.EmitFunc) error {
			if re.Match(record) {
				emit([]byte(strconv.FormatInt(off, 10)), append([]byte(nil), record...))
			}
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit mapreduce.EmitFunc) error {
			for _, v := range values {
				emit(key, v)
			}
			return nil
		},
	}
}

// SyntheticGrep is DistributedGrep in volume-only mode over synthetic
// inputs (cluster-scale experiment E5).
func SyntheticGrep(input []string, outputDir string) mapreduce.JobConfig {
	cfg := DistributedGrep(input, outputDir, "never-matched", true)
	return cfg
}
