// sizes.go fixes every workload's work per round. The full sizes are
// what BENCHMARK.json's numbers mean; the toy sizes let the self-test
// run every code path in a couple of seconds.
package main

type sizes struct {
	tcp      tcpSizes
	sa       saSizes
	mixed    mixedSizes
	sim      simSizes
	layers   layerSizes
	preTouch bool
}

var fullSizes = sizes{
	tcp: tcpSizes{
		providers: 4, pageSize: 256 * kib, blockSize: 4 * mib, fileSize: 8 * mib,
		memCap: 32 * mib, preload: 48, writes: 64, rounds: 7,
	},
	sa: saSizes{
		providers: 4, pageSize: 4 * kib, appendSize: 16 * kib, readSize: 64 * kib,
		preload: 5000, appends: 2000, reads: 10000, rounds: 4,
	},
	mixed: mixedSizes{
		providers: 4, pageSize: 16 * kib, blobSize: 384 * mib, loadBlock: 4 * mib, readSize: 256 * kib,
		writes: 6600, reads: 8000, rounds: 6,
	},
	sim: simSizes{
		nodes: 150, clients: 100, loBytes: 32 * mib, hiBytes: 64 * mib, blockSize: 16 * mib,
		grepMaps: 100, grepBytes: 32 * mib, rounds: 3,
	},
	layers: layerSizes{
		tcp: tcpSizes{
			providers: 4, pageSize: 256 * kib, blockSize: 4 * mib, fileSize: 8 * mib,
			memCap: 32 * mib, preload: 8, writes: 40,
		},
		pages: 1024,
		small: saSizes{
			providers: 4, pageSize: 4 * kib, appendSize: 16 * kib, readSize: 64 * kib,
			appends: 2000, reads: 2000,
		},
		versions: 4000, dhtBatch: 19, dhtOps: 2000, ringOps: 40000,
		simProcs: 200, simSleeps: 500, transfers: 400,
	},
	preTouch: true,
}

var toySizes = sizes{
	tcp: tcpSizes{
		providers: 4, pageSize: 16 * kib, blockSize: 64 * kib, fileSize: 128 * kib,
		memCap: 256 * kib, preload: 4, writes: 8,
	},
	sa: saSizes{
		providers: 2, pageSize: 4 * kib, appendSize: 16 * kib, readSize: 64 * kib,
		preload: 20, appends: 40, reads: 40,
	},
	mixed: mixedSizes{
		providers: 2, pageSize: 16 * kib, blobSize: 2 * mib, loadBlock: 256 * kib, readSize: 256 * kib,
		writes: 40, reads: 40,
	},
	sim: simSizes{
		nodes: 8, clients: 3, loBytes: 8 * mib, hiBytes: 16 * mib, blockSize: 4 * mib,
		grepMaps: 3, grepBytes: 8 * mib,
	},
	layers: layerSizes{
		tcp: tcpSizes{
			providers: 4, pageSize: 16 * kib, blockSize: 64 * kib, fileSize: 128 * kib,
			memCap: 256 * kib, preload: 2, writes: 6,
		},
		pages: 32,
		small: saSizes{
			providers: 2, pageSize: 4 * kib, appendSize: 16 * kib, readSize: 64 * kib,
			appends: 40, reads: 40,
		},
		versions: 50, dhtBatch: 19, dhtOps: 50, ringOps: 1000,
		simProcs: 10, simSleeps: 20, transfers: 20,
	},
}
