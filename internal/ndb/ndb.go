// Package ndb implements the network database of §4.1: "One database
// on a shared server contains all the information needed for network
// administration. Two ASCII files comprise the main database:
// /lib/ndb/local contains locally administered information and
// /lib/ndb/global contains information imported from elsewhere."
//
// The format is the paper's: sets of attr=value pairs, systems
// described by multi-line entries — a header line at the left margin
// followed by indented attribute/value lines. To speed searches the
// database builds per-attribute hash tables stamped with the master
// file's modification time; a stale or missing hash table falls back
// to a linear scan, which "still works, it just takes longer".
package ndb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Tuple is one attr=value pair.
type Tuple struct {
	Attr string
	Val  string
}

// Entry is one multi-line database entry, in file order. The same
// attribute may appear several times (a system with two IP addresses).
type Entry []Tuple

// Get returns the first value of attr.
func (e Entry) Get(attr string) (string, bool) {
	for _, t := range e {
		if t.Attr == attr {
			return t.Val, true
		}
	}
	return "", false
}

// GetAll returns every value of attr, in order.
func (e Entry) GetAll(attr string) []string {
	var vals []string
	for _, t := range e {
		if t.Attr == attr {
			vals = append(vals, t.Val)
		}
	}
	return vals
}

// Has reports whether the entry contains attr=val.
func (e Entry) Has(attr, val string) bool {
	for _, t := range e {
		if t.Attr == attr && t.Val == val {
			return true
		}
	}
	return false
}

// String formats the entry in database syntax. A quoted value is read
// raw, up to the next quote, so a value with a blank in it is written
// between plain quotes, with no escapes.
func (e Entry) String() string {
	var b strings.Builder
	for i, t := range e {
		if i > 0 {
			b.WriteString("\n\t")
		}
		b.WriteString(t.Attr)
		if t.Val != "" {
			b.WriteByte('=')
			if strings.ContainsAny(t.Val, blanks) {
				b.WriteString(`"` + t.Val + `"`)
			} else {
				b.WriteString(t.Val)
			}
		}
	}
	return b.String()
}

// File is one parsed database file (local, global, ...).
type File struct {
	Name    string
	Entries []Entry
	// version stands in for the file's modification time: hash
	// tables remember the version they were built against, and the
	// connection server keys cached answers to it so Replace can
	// never serve a stale translation. Atomic so readers on lock-free
	// hot paths (the CS answer cache) can validate without taking mu.
	version atomic.Int64

	mu     sync.RWMutex
	hashes map[string]*hashTable
}

// hashTable is the per-attribute index: the in-memory form of the
// paper's hash files, including the mtime stamp used for staleness.
type hashTable struct {
	attr    string
	version int64
	chains  map[string][]int // value -> entry indices
}

// ParseError reports a malformed line.
type ParseError struct {
	File string
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ndb: %s:%d: %s", e.File, e.Line, e.Msg)
}

// blanks separate tuples and surround lines: a carriage return counts,
// so that files with CRLF line ends parse.
const blanks = " \t\r"

// isBlank reports whether c is one of blanks.
func isBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// Parse reads database text. Entries begin at the left margin;
// indented lines continue the current entry; # starts a comment, at the
// start of a line or of a tuple, that runs to the end of the line.
func Parse(name string, data []byte) (*File, error) {
	f := &File{Name: name, hashes: make(map[string]*hashTable)}
	f.version.Store(1)
	var cur Entry
	flush := func() {
		if len(cur) > 0 {
			f.Entries = append(f.Entries, cur)
			cur = nil
		}
	}
	for lineno, line := range strings.Split(string(data), "\n") {
		trimmed := strings.Trim(line, blanks)
		if trimmed == "" || trimmed[0] == '#' {
			continue
		}
		indented := isBlank(line[0])
		if !indented {
			flush()
		} else if len(cur) == 0 {
			return nil, &ParseError{File: name, Line: lineno + 1,
				Msg: "continuation line outside an entry"}
		}
		tuples, err := parseTuples(trimmed)
		if err != nil {
			return nil, &ParseError{File: name, Line: lineno + 1, Msg: err.Error()}
		}
		cur = append(cur, tuples...)
	}
	flush()
	return f, nil
}

// parseTuples splits one line into attr=value pairs; values may be
// double-quoted to contain spaces, and a bare attribute has an empty
// value.
func parseTuples(s string) ([]Tuple, error) {
	var out []Tuple
	i := 0
	for i < len(s) {
		for i < len(s) && isBlank(s[i]) {
			i++
		}
		if i >= len(s) || s[i] == '#' {
			break
		}
		start := i
		for i < len(s) && s[i] != '=' && !isBlank(s[i]) {
			i++
		}
		attr := s[start:i]
		if attr == "" {
			return nil, fmt.Errorf("empty attribute")
		}
		var val string
		// Allow whitespace around the separator, as the paper's own
		// example "sys = helix" does.
		j := i
		for j < len(s) && isBlank(s[j]) {
			j++
		}
		if j < len(s) && s[j] == '=' {
			i = j
		}
		if i < len(s) && s[i] == '=' {
			i++
			for i < len(s) && isBlank(s[i]) {
				i++
			}
			if i < len(s) && s[i] == '"' {
				i++
				vs := i
				for i < len(s) && s[i] != '"' {
					i++
				}
				if i >= len(s) {
					return nil, fmt.Errorf("unterminated quote")
				}
				val = s[vs:i]
				i++
			} else {
				vs := i
				for i < len(s) && !isBlank(s[i]) {
					i++
				}
				val = s[vs:i]
			}
		}
		out = append(out, Tuple{Attr: attr, Val: val})
	}
	return out, nil
}

// BuildHash builds (or rebuilds) the hash table for attr, stamping it
// with the file's current version, as writing a hash file stamps it
// with the master's mtime.
func (f *File) BuildHash(attr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := &hashTable{attr: attr, version: f.version.Load(), chains: make(map[string][]int)}
	for i, e := range f.Entries {
		for _, t := range e {
			if t.Attr == attr {
				h.chains[t.Val] = append(h.chains[t.Val], i)
			}
		}
	}
	f.hashes[attr] = h
}

// Replace swaps in new entries and bumps the version; existing hash
// tables become stale (they keep the old stamp) until rebuilt.
func (f *File) Replace(entries []Entry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.Entries = entries
	f.version.Add(1)
}

// lookup returns the indices of entries with attr=val and whether the
// hash path was used (false = linear scan).
func (f *File) lookup(attr, val string) ([]int, bool) {
	f.mu.RLock()
	h := f.hashes[attr]
	version := f.version.Load()
	f.mu.RUnlock()
	if h != nil && h.version == version {
		return h.chains[val], true
	}
	// "Searches for attributes that aren't hashed or whose hash
	// table is out-of-date still work, they just take longer."
	var idx []int
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i, e := range f.Entries {
		if e.Has(attr, val) {
			idx = append(idx, i)
		}
	}
	return idx, false
}

// DB is an ordered list of database files, searched in order (local
// before global).
type DB struct {
	Files []*File

	// scanSearches and hashSearches count lookup paths, for the
	// staleness tests and the hash-vs-scan experiment.
	scanSearches atomic.Int64
	hashSearches atomic.Int64
}

// New assembles a database from parsed files.
func New(files ...*File) *DB { return &DB{Files: files} }

// ParseDB parses source texts in order into a database.
func ParseDB(sources map[string][]byte, order ...string) (*DB, error) {
	db := &DB{}
	for _, name := range order {
		f, err := Parse(name, sources[name])
		if err != nil {
			return nil, err
		}
		db.Files = append(db.Files, f)
	}
	return db, nil
}

// HashAll builds hash tables for the attributes expected to be
// searched often, as the paper's hash files do.
func (db *DB) HashAll(attrs ...string) {
	for _, f := range db.Files {
		for _, a := range attrs {
			f.BuildHash(a)
		}
	}
}

// Version combines the version stamps of every file in the database.
// Any Replace on any file changes the result, so a consumer holding
// answers derived from the database (the connection server's cache)
// can validate them with a few atomic loads and no locks.
func (db *DB) Version() int64 {
	var v int64
	for _, f := range db.Files {
		v += f.version.Load()
	}
	return v
}

// Counters returns (hash-path searches, scan-path searches).
func (db *DB) Counters() (int64, int64) {
	return db.hashSearches.Load(), db.scanSearches.Load()
}

// Query returns every entry with attr=val, local files first.
func (db *DB) Query(attr, val string) []Entry {
	var out []Entry
	for _, f := range db.Files {
		idx, hashed := f.lookup(attr, val)
		if hashed {
			db.hashSearches.Add(1)
		} else {
			db.scanSearches.Add(1)
		}
		f.mu.RLock()
		for _, i := range idx {
			if i < len(f.Entries) {
				out = append(out, f.Entries[i])
			}
		}
		f.mu.RUnlock()
	}
	return out
}

// QueryOne returns the first entry with attr=val.
func (db *DB) QueryOne(attr, val string) (Entry, bool) {
	es := db.Query(attr, val)
	if len(es) == 0 {
		return nil, false
	}
	return es[0], true
}

// FindSystem locates a system's entry by any of its names: sys=,
// dom=, or ip=.
func (db *DB) FindSystem(name string) (Entry, bool) {
	for _, attr := range []string{"sys", "dom", "ip", "dk"} {
		if e, ok := db.QueryOne(attr, name); ok {
			return e, true
		}
	}
	return nil, false
}

// ServicePort maps a service name to its port for a protocol, per the
// entries of the form "tcp=echo port=7". Numeric names pass through.
func (db *DB) ServicePort(proto, service string) (string, bool) {
	if service == "" {
		return "", false
	}
	if isNumeric(service) {
		return service, true
	}
	if e, ok := db.QueryOne(proto, service); ok {
		if port, ok := e.Get("port"); ok {
			return port, true
		}
	}
	// IL services fall back to TCP entries plus the IL port base, as
	// the real csquery transcripts show il!...!9fs resolving via a
	// dedicated il entry; here we just require explicit entries.
	return "", false
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
