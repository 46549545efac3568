//go:build race

package rpcnet

// poolMisses is how many of the chunks a served stream takes from the
// sync.Pool may be fresh allocations: the race runtime's Pool drops one
// Put in four at random, so a stream that takes two chunks in a row
// (a put, then a read) may miss twice.
const poolMisses = 2
