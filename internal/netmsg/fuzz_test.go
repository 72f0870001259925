package netmsg

import (
	"strings"
	"testing"
)

// FuzzCtl holds writers and parsers of the ctl grammar to one
// vocabulary. Every formatter's output parses back through Parse to its
// own verb and its argument (trimmed, as Parse trims it), so a formatter
// cannot drift from what netdev and ether switch on. Any other string,
// as a peer or a user writes it to a ctl file, parses without a panic
// into a verb and an argument that are both pieces of the input.
func FuzzCtl(f *testing.F) {
	for _, seed := range []struct{ a, b string }{
		{"135.104.9.31!564", "*!0"},
		{"helix!9fs", ""},
		{"*!echo", "local"},
		{"batch 2048 2ms", "compress"},
		{"-1", "2048"},
		{"busy", "on"},
		{"", ""},
		{"  padded\t", " \n"},
		{"connect  2048 ", "hangup"},
		{" nbsp\u0085", "x y  z"},
	} {
		f.Add(seed.a, seed.b)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		trim := strings.TrimSpace
		for _, c := range []struct {
			msg, verb, arg string
		}{
			{Connect(a), VerbConnect, trim(a)},
			{ConnectLocal(a, b), VerbConnect, trim(a + " " + b)},
			{Announce(a), VerbAnnounce, trim(a)},
			{Reject(a), VerbReject, trim(a)},
			{Hangup(), VerbHangup, ""},
			{Push(a), VerbPush, trim(a)},
			{Pop(), VerbPop, ""},
			{Promiscuous(), VerbPromiscuous, ""},
			{Trace(a), VerbTrace, trim(a)},
		} {
			if verb, arg := Parse(c.msg); verb != c.verb || arg != c.arg {
				t.Fatalf("Parse(%q) = %q, %q; want %q, %q", c.msg, verb, arg, c.verb, c.arg)
			}
		}
		for _, in := range []string{a, b, a + " " + b} {
			verb, arg := Parse(in)
			if strings.ContainsRune(verb, ' ') || arg != trim(arg) {
				t.Fatalf("Parse(%q) = %q, %q: verb holds a space or arg is untrimmed", in, verb, arg)
			}
			if !strings.Contains(in, verb) || !strings.Contains(in, arg) || len(verb)+len(arg) > len(in) {
				t.Fatalf("Parse(%q) = %q, %q: not pieces of the input", in, verb, arg)
			}
		}
	})
}
