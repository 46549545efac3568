// Command blobctl is the remote client for a bsfsd server: put, get,
// append, list, stat, rename, delete, and snapshot inspection.
//
// Usage:
//
//	blobctl -addr host:7700 put /data/input < local.txt
//	blobctl get /data/input > out.txt
//	blobctl get -version 2 /data/input       # read an old snapshot
//	blobctl append /data/input < more.txt
//	blobctl ls /data
//	blobctl versions /data/input
//	blobctl stat /data/input
//	blobctl shards                           # version-manager tier topology
//	blobctl shards /data/input               # which shard owns this file
//	blobctl providers                        # provider fleet: health + occupancy + last sweep
//	blobctl tenants                          # per-tenant admission counters
//	blobctl -tenant team-a put /data/input < local.txt
//	blobctl join                             # grow the fleet (auto-picks a node)
//	blobctl drain 3                          # migrate node 3's pages away
//	blobctl leave 3                          # remove node 3 from the fleet
//	blobctl mv /data/input /data/renamed
//	blobctl rm /data/renamed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/rpcnet"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: blobctl [-addr host:port] <command> [args]
commands:
  put <path>            write stdin to a new file
  append <path>         append stdin to an existing file
  get [-version N] <path>  write file (or snapshot) to stdout
  ls <dir>              list a directory
  stat <path>           show file metadata
  versions <path>       list a file's snapshots
  shards [<path>]       show the version-manager tier (and a file's owning shard)
  providers             show the provider fleet: health, occupancy, backend, epoch, last sweep
  tenants               show per-tenant admission counters (admitted/rejected/inflight)
  join [<node>]         add a provider (no node = auto-allocate)
  drain <node>          migrate a provider's pages away (keeps serving reads)
  leave <node>          remove a provider from the fleet
  mkdir <dir>           create a directory
  mv <old> <new>        rename
  rm <path>             delete`)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "bsfsd address")
	tenant := flag.String("tenant", "", "admission tenant to attribute data operations to (empty = unlimited)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}

	c, err := rpcnet.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	c.Tenant = *tenant

	cmd, args := args[0], args[1:]
	switch cmd {
	case "put", "append":
		if len(args) != 1 {
			usage()
		}
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		if cmd == "put" {
			err = c.Put(args[0], data)
		} else {
			err = c.Append(args[0], data)
		}
		if err != nil {
			fatal(err)
		}
	case "get":
		fs := flag.NewFlagSet("get", flag.ExitOnError)
		version := fs.Uint64("version", 0, "snapshot version (0 = latest)")
		fs.Parse(args)
		if fs.NArg() != 1 {
			usage()
		}
		data, err := c.Get(fs.Arg(0), *version)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case "ls":
		if len(args) != 1 {
			usage()
		}
		entries, err := c.List(args[0])
		if err != nil {
			fatal(err)
		}
		for _, e := range entries {
			kind := "file"
			if e.IsDir {
				kind = "dir "
			}
			fmt.Printf("%s %12d  %s\n", kind, e.Size, e.Path)
		}
	case "stat":
		if len(args) != 1 {
			usage()
		}
		st, err := c.Stat(args[0])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("path: %s\nsize: %d\ndir:  %v\n", st.Path, st.Size, st.IsDir)
	case "versions":
		if len(args) != 1 {
			usage()
		}
		vs, err := c.Versions(args[0])
		if err != nil {
			fatal(err)
		}
		for _, v := range vs {
			fmt.Println(v)
		}
	case "shards":
		if len(args) > 1 {
			usage()
		}
		path := ""
		if len(args) == 1 {
			path = args[0]
		}
		sr, err := c.Shards(path)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("shards: %d\nnodes:  %v\n", sr.Count, sr.Nodes)
		if path != "" {
			fmt.Printf("file:   %s\nblob:   %d\nshard:  %d\n", path, sr.Blob, sr.Shard)
		}
	case "providers":
		if len(args) != 0 {
			usage()
		}
		pr, err := c.Providers()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("epoch: %d\n", pr.Epoch)
		fmt.Printf("%-6s %-9s %8s %14s %14s %14s %10s %s\n", "node", "health", "pages", "resident", "dirty", "stored", "recovered", "backend")
		for _, p := range pr.Providers {
			backend := p.Backend
			if backend == "" {
				backend = "(ram)"
			}
			fmt.Printf("%-6d %-9s %8d %14d %14d %14d %10d %s\n", p.Node, p.Health, p.Entries, p.Resident, p.Dirty, p.Stored, p.Recovered, backend)
		}
		s := pr.LastSweep
		fmt.Printf("last sweep: scanned %d degraded %d lost %d migrated %d added %d dropped %d copied %d\n",
			s.PagesScanned, s.PagesDegraded, s.PagesLost, s.PagesMigrated, s.ReplicasAdded, s.ReplicasDropped, s.BytesCopied)
		if pr.SweepError != "" {
			fmt.Printf("sweep error: %s\n", pr.SweepError)
		}
	case "tenants":
		if len(args) != 0 {
			usage()
		}
		tr, err := c.Tenants()
		if err != nil {
			fatal(err)
		}
		if !tr.Enabled {
			fmt.Println("admission: disabled (start bsfsd with -tenant-rate)")
			return
		}
		fmt.Printf("admission: %.1f ops/s per tenant, burst %.1f\n", tr.Rate, tr.Burst)
		fmt.Printf("%-20s %10s %10s %9s\n", "tenant", "admitted", "rejected", "inflight")
		for _, t := range tr.Tenants {
			fmt.Printf("%-20s %10d %10d %9d\n", t.Tenant, t.Admitted, t.Rejected, t.Inflight)
		}
	case "join", "drain", "leave":
		var node uint64
		switch {
		case len(args) == 0 && cmd == "join":
			// auto-allocate
		case len(args) == 1:
			if _, err := fmt.Sscanf(args[0], "%d", &node); err != nil || (node == 0 && cmd != "join") {
				usage()
			}
		default:
			usage()
		}
		var nr rpcnet.NodeReply
		var err error
		switch cmd {
		case "join":
			nr, err = c.Join(node)
		case "drain":
			nr, err = c.Drain(node)
		case "leave":
			nr, err = c.Leave(node)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("node:  %d\nepoch: %d\n", nr.Node, nr.Epoch)
	case "mkdir":
		if len(args) != 1 {
			usage()
		}
		if err := c.Mkdir(args[0]); err != nil {
			fatal(err)
		}
	case "mv":
		if len(args) != 2 {
			usage()
		}
		if err := c.Rename(args[0], args[1]); err != nil {
			fatal(err)
		}
	case "rm":
		if len(args) != 1 {
			usage()
		}
		if err := c.Delete(args[0]); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "blobctl: %v\n", err)
	os.Exit(1)
}
