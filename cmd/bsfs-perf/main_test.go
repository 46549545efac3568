package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the self-test checks the
// program against.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// output is the JSON line the contract asks for.
type output struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
}

// runToy runs the command at toy scale in the scratch directory dir and
// returns its exit code, its parsed JSON lines and what it printed for
// people.
func runToy(t *testing.T, dir string, tweak func(*config), args ...string) (int, []output, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-scratch", dir, "-seconds", "0.01"}, args...)
	code := run(args, &stdout, &stderr, func(c *config) {
		c.sizes = toySizes
		if tweak != nil {
			tweak(c)
		}
	})
	var outs []output
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if line == "" {
			continue
		}
		var o output
		if err := json.Unmarshal([]byte(line), &o); err != nil {
			t.Fatalf("stdout line is not the contract's JSON object: %v\n%s", err, line)
		}
		outs = append(outs, o)
	}
	return code, outs, stderr.String()
}

func names(ms []declaredMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSchema runs every workload untraced and traced and holds the
// output against BENCHMARK.json: same workloads, same metric names and
// units, in both directions.
func TestSchema(t *testing.T) {
	d := loadDeclared(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wantWorkloads []string
	for _, w := range d.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
		if !nameOK.MatchString(w.Name) {
			t.Errorf("workload name %q has characters outside letters, digits, _ . -", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var haveWorkloads []string
	for _, w := range workloads {
		haveWorkloads = append(haveWorkloads, w.name)
	}
	if strings.Join(wantWorkloads, " ") != strings.Join(haveWorkloads, " ") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", wantWorkloads, haveWorkloads)
	}
	units := map[string]string{}
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		if !nameOK.MatchString(m.Name) {
			t.Errorf("metric name %q has characters outside letters, digits, _ . -", m.Name)
		}
		if _, dup := units[m.Name]; dup {
			t.Errorf("metric %s declared twice", m.Name)
		}
		units[m.Name] = m.Unit
	}

	for _, trace := range []string{"0", "1"} {
		want := names(d.EndToEnd)
		if trace == "1" {
			want = names(d.PerLayer)
		}
		dir := t.TempDir()
		code, outs, log := runToy(t, dir, nil, "-trace", trace)
		if code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", trace, code, log)
		}
		if len(outs) != len(workloads) {
			t.Fatalf("trace %s: %d result lines for %d workloads", trace, len(outs), len(workloads))
		}
		for i, o := range outs {
			w := workloads[i].name
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w, trace, o.Correct, o.Attempted, o.Failed)
			}
			if got := keys(o.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace %s: metrics differ from BENCHMARK.json\n got %v\nwant %v", w, trace, got, want)
			}
			for name, m := range o.Metrics {
				if m.Unit != units[name] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w, name, m.Unit, units[name])
				}
				if strings.HasSuffix(name, "_self_ms") && m.Value < 0 {
					t.Errorf("%s: self time %s is negative: %v", w, name, m.Value)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be above zero", w, name, m.Value)
				}
			}
		}
		// Percentiles come with their sample counts in the printed form.
		for _, line := range strings.Split(log, "\n") {
			f := strings.Fields(line)
			if len(f) >= 2 && (strings.HasSuffix(f[1], "_p50_ms") || strings.HasSuffix(f[1], "_p95_ms")) && !strings.Contains(line, "n=") {
				t.Errorf("percentile printed without its sample count: %s", line)
			}
		}
		// Every traced workload leaves a span file of its own.
		for _, w := range workloads {
			if trace != "1" {
				break
			}
			raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var got []span
			if err := json.Unmarshal(raw, &got); err != nil || len(got) == 0 {
				t.Fatalf("%s: span file: %d spans: %v", w.name, len(got), err)
			}
			for _, s := range got {
				if s.Span == 0 || s.Op == 0 || s.Layer == "" || s.Name == "" || s.EndNS < s.StartNS {
					t.Fatalf("%s: malformed span %+v", w.name, s)
				}
			}
		}
	}
}

// TestCorruptedReadFails flips a byte of some reads before they are
// verified: each must be counted as a failed operation and the command
// must exit non-zero.
func TestCorruptedReadFails(t *testing.T) {
	for _, w := range []string{"tcp-files", "shared-append", "mixed-rw"} {
		code, outs, log := runToy(t, t.TempDir(), func(c *config) { c.corruptEvery = 5 }, "-workload", w)
		if code == 0 {
			t.Errorf("%s: exit code 0 with corrupted reads\n%s", w, log)
		}
		if len(outs) != 1 || outs[0].Correct || outs[0].Failed == 0 || outs[0].Failed >= outs[0].Attempted {
			t.Errorf("%s: corrupted reads reported as %+v", w, outs)
		}
	}
}

// TestCountsRepeat checks the one count that is exact: the metadata
// write amplification repeats for a seed and does not depend on the
// seed (payload bytes do not change how many tree nodes an append
// writes). The simulator's virtual-time outputs are reported too, but
// at this commit they are not exact for a seed (see README.md), so the
// test only requires them to be present and positive.
func TestCountsRepeat(t *testing.T) {
	layer := func(seed string) map[string]metric {
		code, outs, log := runToy(t, t.TempDir(), nil, "-workload", "sim-paper", "-trace", "1", "-seed", seed)
		if code != 0 || len(outs) != 1 {
			t.Fatalf("seed %s: exit code %d\n%s", seed, code, log)
		}
		return outs[0].Metrics
	}
	a, b, c := layer("7"), layer("7"), layer("8")
	const exact = "dht.keys_per_append"
	if a[exact].Value != b[exact].Value || a[exact].Value != c[exact].Value {
		t.Errorf("%s is not exact: %v and %v for one seed, %v for another", exact, a[exact].Value, b[exact].Value, c[exact].Value)
	}
	for _, name := range []string{exact, "sim.virtual_write_mibps", "sim.virtual_read_mibps", "mapreduce.virtual_grep_s", "simnet.bytes_moved"} {
		for _, m := range []map[string]metric{a, b, c} {
			if m[name].Value <= 0 {
				t.Errorf("%s is %v", name, m[name].Value)
			}
		}
	}
}
