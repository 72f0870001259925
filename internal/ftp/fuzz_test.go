package ftp

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadReply feeds the control connection's reply parser arbitrary
// peer bytes. It must not panic; every code it accepts is three digits
// from 100 to 599 followed by a space, exactly as the line began; and a
// well-formed "%d %s\r\n" reply comes back as the code and text it was
// made from.
func FuzzReadReply(f *testing.F) {
	for _, s := range []string{
		"220 repro FTP service ready\r\n", "227 =135.104.9.2!1024\r\n",
		"226 \r\n", "+12 ok\r\n", "-12 x\r\n", " 12 x\r\n", "2200ok\r\n",
		"220-first line\r\n", "099 low\r\n", "600 high\r\n", "22\r\n",
		"\r\n", "220 no newline", "abc def\n",
	} {
		f.Add(s, uint16(220), "ready")
	}
	f.Fuzz(func(t *testing.T, data string, code uint16, msg string) {
		fs := &FS{r: bufio.NewReader(strings.NewReader(data))}
		if got, _, err := fs.readReply(); err == nil {
			if got < 100 || got > 599 || !strings.HasPrefix(data, strconv.Itoa(got)+" ") {
				t.Fatalf("readReply(%q) accepted code %d", data, got)
			}
		}
		if code < 100 || code > 599 || strings.ContainsAny(msg, "\r\n") {
			return
		}
		line := fmt.Sprintf("%d %s\r\n", code, msg)
		fs = &FS{r: bufio.NewReader(strings.NewReader(line))}
		got, text, err := fs.readReply()
		if err != nil || got != int(code) || text != msg {
			t.Fatalf("readReply(%q) = %d %q, %v; want %d %q", line, got, text, err, code, msg)
		}
	})
}
