// Command regsimstore administers a durable result store directory — the
// on-disk L2 cache that regsim/regsimd/experiments populate with -store.
//
// Subcommands:
//
//	regsimstore ls      -dir DIR     list entries (bench, scheme, budget, IPC)
//	regsimstore stats   -dir DIR     index and segment statistics
//	regsimstore verify  -dir DIR     full CRC scan of every segment
//	regsimstore compact -dir DIR     rewrite live records, reclaim dead space
//	regsimstore gc      -dir DIR -max-bytes N   evict down to N live bytes
//
// ls, stats, and verify open the store read-only (a shared lock, so they
// can run against a store a stopped daemon left behind — but not against a
// live writer). compact and gc take the exclusive writer lock.
package main

import (
	"flag"
	"fmt"
	"os"

	"regcache/internal/sim"
	"regcache/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "ls":
		err = cmdLs(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "gc":
		err = cmdGC(os.Args[2:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "regsimstore: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "regsimstore: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `regsimstore <ls|stats|verify|compact|gc> -dir DIR [flags]

ls:      list entries with their decoded run summaries (read-only)
stats:   index and segment statistics (read-only)
verify:  re-read and CRC-check every record in every segment (read-only)
compact: rewrite live records into fresh segments, delete the old ones
gc:      evict least-recently-re-hit entries down to -max-bytes, then compact
  -max-bytes n   target live data size in bytes (required)`)
}

// flagSet builds a subcommand flag set with the shared -dir flag.
func flagSet(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("regsimstore "+name, flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	return fs, dir
}

func open(dir string, readOnly bool) (*store.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("need -dir")
	}
	return store.Open(dir, store.Options{ReadOnly: readOnly})
}

func cmdLs(args []string) error {
	fs, dir := flagSet("ls")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := open(*dir, true)
	if err != nil {
		return err
	}
	defer st.Close()
	n, undecodable := 0, 0
	for _, info := range st.Entries() {
		val, err := st.Get(info.Key)
		if err != nil {
			fmt.Printf("%x  seg %d  %6d B  unreadable: %v\n", info.Key[:6], info.Segment, info.Len, err)
			undecodable++
			continue
		}
		rec, _, err := sim.DecodeStoredPayload(val)
		if err != nil {
			fmt.Printf("%x  seg %d  %6d B  %v\n", info.Key[:6], info.Segment, info.Len, err)
			undecodable++
			continue
		}
		fmt.Printf("%x  seg %d  %6d B  %-28s %-10s n=%-8d ipc %.3f\n",
			info.Key[:6], info.Segment, info.Len, rec.Scheme.Name, rec.Bench, rec.Insts, rec.IPC)
		n++
	}
	fmt.Printf("%d entries", n)
	if undecodable > 0 {
		fmt.Printf(" (%d undecodable)", undecodable)
	}
	fmt.Println()
	return nil
}

func cmdStats(args []string) error {
	fs, dir := flagSet("stats")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := open(*dir, true)
	if err != nil {
		return err
	}
	defer st.Close()
	s := st.Stats()
	fmt.Printf("dir:          %s\n", st.Dir())
	fmt.Printf("entries:      %d\n", s.Entries)
	fmt.Printf("segments:     %d\n", s.Segments)
	fmt.Printf("size bytes:   %d\n", s.SizeBytes)
	fmt.Printf("live bytes:   %d\n", s.LiveBytes)
	if s.SizeBytes > 0 {
		fmt.Printf("live frac:    %.1f%%\n", 100*float64(s.LiveBytes)/float64(s.SizeBytes))
	}
	fmt.Printf("superseded:   %d\n", s.Superseded)
	fmt.Printf("corrupt recs: %d\n", s.CorruptRecords)
	fmt.Printf("torn recs:    %d\n", s.TornRecords)
	return nil
}

func cmdVerify(args []string) error {
	fs, dir := flagSet("verify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := open(*dir, true)
	if err != nil {
		return err
	}
	defer st.Close()
	rep, err := st.Verify()
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if rep.Corrupt > 0 {
		return fmt.Errorf("%d corrupt records", rep.Corrupt)
	}
	return nil
}

func cmdCompact(args []string) error {
	fs, dir := flagSet("compact")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := open(*dir, false)
	if err != nil {
		return err
	}
	defer st.Close()
	before := st.Stats()
	if err := st.Compact(); err != nil {
		return err
	}
	after := st.Stats()
	fmt.Printf("compacted: %d -> %d bytes (%d entries)\n", before.SizeBytes, after.SizeBytes, after.Entries)
	return nil
}

func cmdGC(args []string) error {
	fs, dir := flagSet("gc")
	maxBytes := fs.Int64("max-bytes", -1, "target live data size in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxBytes < 0 {
		return fmt.Errorf("gc needs -max-bytes")
	}
	st, err := open(*dir, false)
	if err != nil {
		return err
	}
	defer st.Close()
	evicted, err := st.GC(*maxBytes)
	if err != nil {
		return err
	}
	after := st.Stats()
	fmt.Printf("evicted %d entries; %d entries, %d live bytes remain\n", evicted, after.Entries, after.LiveBytes)
	return nil
}
