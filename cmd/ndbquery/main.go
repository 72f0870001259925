// Command ndbquery queries the network database directly (§4.1), like
// ndb/query: given an attribute and value it prints matching entries,
// and with a third argument it returns that attribute resolved through
// the system → subnetwork → network walk.
//
//	ndbquery sys helix
//	ndbquery sys helix auth
//	ndbquery -f mydb.ndb dom helix.research.bell-labs.com
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/ndb"
)

func main() {
	file := flag.String("f", "", "database file (default: the paper's)")
	flag.Parse()
	if flag.NArg() != 2 && flag.NArg() != 3 {
		fmt.Fprintln(os.Stderr, "usage: ndbquery [-f db] attr value [rattr]")
		os.Exit(2)
	}
	if err := run(os.Stdout, *file, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "ndbquery:", err)
		os.Exit(1)
	}
}

// run answers one query, args being attr value [rattr], against the
// database in file ("" for the paper's). It builds no world, so it
// needs no clock.
func run(w io.Writer, file string, args []string) error {
	src := []byte(core.PaperNdb)
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		src = b
	}
	f, err := ndb.Parse("db", src)
	if err != nil {
		return err
	}
	db := ndb.New(f)
	db.HashAll(args[0])

	attr, val := args[0], args[1]
	if len(args) == 3 {
		rattr := args[2]
		v, ok := db.IPInfo(val, rattr)
		if !ok {
			return fmt.Errorf("no %s for %s", rattr, val)
		}
		fmt.Fprintf(w, "%s=%s\n", rattr, v)
		return nil
	}
	entries := db.Query(attr, val)
	if len(entries) == 0 {
		return errors.New("no match")
	}
	for _, e := range entries {
		fmt.Fprintln(w, e.String())
	}
	return nil
}
