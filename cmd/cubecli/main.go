// Command cubecli exposes the Ophidia-like datacube engine on the
// command line, both as a server and as a client, mirroring how
// PyOphidia drives a remote Ophidia deployment.
//
// Server:
//
//	cubecli serve -addr 127.0.0.1:8761 -servers 4
//	cubecli serve -addr 127.0.0.1:8761 -cluster -shards 4 -replicas 2
//
// With -cluster the same address serves a sharded, replicated
// coordinator; every client command below works unchanged against it.
//
// Client (against a running server):
//
//	cubecli import -addr ... -var TREFHT <files...>  → prints cube id
//	cubecli op -addr ... -cube cube-1 -apply "x>278 ? 1 : 0"
//	cubecli op -addr ... -cube cube-2 -reduce sum
//	cubecli show -addr ... -cube cube-3 -row 0
//	cubecli list -addr ...
//	cubecli stats -addr ...
//
// Clients and server speak the v2 binary wire protocol; a client
// command fails at once against anything that does not answer its
// handshake. The server closes idle connections after -idle-timeout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"

	"repro/internal/cubecluster"
	"repro/internal/cubeserver"
	"repro/internal/datacube"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "serve":
		serve(args)
	case "import":
		doImport(args)
	case "op":
		doOp(args)
	case "pipe":
		doPipe(args)
	case "show":
		doShow(args)
	case "list":
		doList(args)
	case "stats":
		doStats(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cubecli {serve|import|op|pipe|show|list|stats} [flags]")
	os.Exit(2)
}

// doPipe executes a server-side operator pipeline described as a JSON
// array of steps on stdin (or -steps), e.g.:
//
//	echo '[{"Op":"apply","Expr":"x>5 ? 1 : 0"},{"Op":"reduce","RowOp":"sum"}]' \
//	  | cubecli pipe -cube cube-4
func doPipe(args []string) {
	fs := flag.NewFlagSet("pipe", flag.ExitOnError)
	addClientFlags(fs)
	cubeID := fs.String("cube", "", "source cube id (required)")
	stepsJSON := fs.String("steps", "", "pipeline steps as JSON (default: read stdin)")
	fs.Parse(args)
	if *cubeID == "" {
		log.Fatal("pipe: -cube required")
	}
	raw := []byte(*stepsJSON)
	if len(raw) == 0 {
		var err error
		raw, err = io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
	}
	var steps []cubeserver.PipelineStep
	if err := json.Unmarshal(raw, &steps); err != nil {
		log.Fatalf("pipe: bad steps JSON: %v", err)
	}
	c := dial(fs)
	defer c.Close()
	out, err := remote(c, *cubeID).Pipeline(steps...)
	if err != nil {
		log.Fatal(err)
	}
	printShape(out)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8761", "listen address")
	servers := fs.Int("servers", 4, "in-memory I/O servers")
	frags := fs.Int("frags", 0, "fragments per cube (0 = 2×servers)")
	cluster := fs.Bool("cluster", false, "serve a sharded coordinator instead of one engine")
	shards := fs.Int("shards", 4, "cluster row-range shards (with -cluster)")
	replicas := fs.Int("replicas", 1, "replicas per shard (with -cluster)")
	budget := fs.Int64("budget", 0, "resident-byte budget: demote cold cubes to pyramid stand-ins over this (0 = off; engine mode only)")
	idle := fs.Duration("idle-timeout", 0, "close client connections idle this long (0 = default 2m, negative = never)")
	fs.Parse(args)

	opts := cubeserver.Options{IdleTimeout: *idle}
	var srv *cubeserver.Server
	if *cluster {
		cl, err := cubecluster.NewLocal(cubecluster.Config{
			Shards:   *shards,
			Replicas: *replicas,
			Engine:   datacube.Config{Servers: *servers, FragmentsPerCube: *frags},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		srv, err = cubeserver.ServeOptions(*addr, cl, nil, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("datacube cluster on %s (%d shards × %d replicas, %d I/O servers each)\n",
			srv.Addr(), *shards, *replicas, *servers)
	} else {
		engine := datacube.NewEngine(datacube.Config{Servers: *servers, FragmentsPerCube: *frags})
		defer engine.Close()
		var err error
		if *budget > 0 {
			srv, err = cubeserver.ServeOptions(*addr, cubeserver.ResidentDispatcher(engine, *budget, nil), nil, opts)
		} else {
			srv, err = cubeserver.ServeOptions(*addr, cubeserver.EngineDispatcher(engine), nil, opts)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("datacube server on %s (%d I/O servers)\n", srv.Addr(), *servers)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	srv.Close()
}

// addClientFlags registers the flags every client command shares.
func addClientFlags(fs *flag.FlagSet) {
	fs.String("addr", "127.0.0.1:8761", "server address")
}

func dial(fs *flag.FlagSet) *cubeserver.Client {
	addr := fs.Lookup("addr").Value.String()
	c, err := cubeserver.Dial(addr)
	if err != nil {
		log.Fatalf("connect %s: %v", addr, err)
	}
	return c
}

func doImport(args []string) {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	addClientFlags(fs)
	varName := fs.String("var", "TREFHT", "variable to import")
	implicit := fs.String("implicit", "time", "implicit dimension")
	fs.Parse(args)
	if fs.NArg() == 0 {
		log.Fatal("import: need at least one file")
	}
	c := dial(fs)
	defer c.Close()
	cube, err := c.ImportFiles(fs.Args(), *varName, *implicit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s rows=%d implicit=%d fragments=%d\n",
		cube.ID(), cube.Shape.Rows, cube.Shape.ImplicitLen, cube.Shape.Fragments)
}

func doOp(args []string) {
	fs := flag.NewFlagSet("op", flag.ExitOnError)
	addClientFlags(fs)
	cubeID := fs.String("cube", "", "cube id (required)")
	apply := fs.String("apply", "", "elementwise expression over x")
	reduce := fs.String("reduce", "", "row reduction op")
	group := fs.Int("group", 0, "reduce group size (0 = whole row)")
	params := fs.String("params", "", "comma-separated reduction parameters")
	subset := fs.String("subset", "", "implicit range lo:hi")
	export := fs.String("export", "", "server-side export path")
	del := fs.Bool("delete", false, "delete the cube")
	fs.Parse(args)
	if *cubeID == "" {
		log.Fatal("op: -cube required")
	}
	c := dial(fs)
	defer c.Close()
	cube := remote(c, *cubeID)

	var ps []float64
	if *params != "" {
		for _, p := range strings.Split(*params, ",") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(p), "%g", &v); err != nil {
				log.Fatalf("bad parameter %q", p)
			}
			ps = append(ps, v)
		}
	}
	switch {
	case *apply != "":
		out, err := cube.Apply(*apply)
		if err != nil {
			log.Fatal(err)
		}
		printShape(out)
	case *reduce != "" && *group > 0:
		out, err := cube.ReduceGroup(*reduce, *group, ps...)
		if err != nil {
			log.Fatal(err)
		}
		printShape(out)
	case *reduce != "":
		out, err := cube.Reduce(*reduce, ps...)
		if err != nil {
			log.Fatal(err)
		}
		printShape(out)
	case *subset != "":
		var lo, hi int
		if _, err := fmt.Sscanf(*subset, "%d:%d", &lo, &hi); err != nil {
			log.Fatalf("bad subset %q", *subset)
		}
		out, err := cube.Subset(lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		printShape(out)
	case *export != "":
		if err := cube.Export(*export); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("exported %s to %s\n", *cubeID, *export)
	case *del:
		if err := cube.Delete(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("deleted %s\n", *cubeID)
	default:
		log.Fatal("op: nothing to do (use -apply/-reduce/-subset/-export/-delete)")
	}
}

func remote(c *cubeserver.Client, id string) *cubeserver.RemoteCube {
	return cubeserver.NewRemoteCube(c, id)
}

func printShape(r *cubeserver.RemoteCube) {
	fmt.Printf("%s rows=%d implicit=%d\n", r.ID(), r.Shape.Rows, r.Shape.ImplicitLen)
}

func doShow(args []string) {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	addClientFlags(fs)
	cubeID := fs.String("cube", "", "cube id")
	row := fs.Int("row", 0, "row to print")
	fs.Parse(args)
	c := dial(fs)
	defer c.Close()
	vals, err := remote(c, *cubeID).Row(*row)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s[%d] = %v\n", *cubeID, *row, vals)
}

func doList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	addClientFlags(fs)
	fs.Parse(args)
	c := dial(fs)
	defer c.Close()
	ids, err := c.List()
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range ids {
		fmt.Println(id)
	}
}

func doStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addClientFlags(fs)
	fs.Parse(args)
	c := dial(fs)
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("file_reads=%d cells=%d ops=%d fragment_tasks=%d\n",
		st.FileReads, st.CellsProcessed, st.Ops, st.FragmentTasks)
}
