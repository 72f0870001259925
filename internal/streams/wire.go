package streams

import (
	"fmt"
	"strconv"
	"strings"
)

// Wire-format describers for diagnostic tools: snoopy captures raw
// packets off the wire, so a conversation dressed with the batch or
// compress modules shows framed payloads inside its segments. These
// helpers let the snooper name what it sees without duplicating the
// module wire formats: they read frames with the modules' own header
// readers and expansion. They are best-effort by construction — a
// transport segment may start mid-frame.

// SnoopCompress reports whether p begins with a compress-module frame
// and renders its header. ok is false when p cannot start a frame.
func SnoopCompress(p []byte) (desc string, ok bool) {
	flags, ulen, n, bad := compressHeader(p)
	if bad || n == 0 {
		return "", false
	}
	clen := n - compressHdrLen
	kind := "stored"
	if flags&cflagLZ != 0 {
		kind = "lz"
	}
	delim := ""
	if flags&cflagDelim != 0 {
		delim = " delim"
	}
	part := ""
	if len(p) < n {
		part = fmt.Sprintf(", %d of %d here", len(p)-compressHdrLen, clen)
	}
	return fmt.Sprintf("compress(%s %d -> %d%s%s)", kind, ulen, clen, delim, part), true
}

// SnoopBatch reports whether p parses as a batch-module wire block —
// a run of 4-byte big-endian length-prefixed messages — and renders
// the frame walk. It requires at least one complete frame header and
// that every length stays within the module's message cap, so
// arbitrary payloads rarely misreport; a trailing partial frame (a
// segment boundary mid-message) is noted, not rejected.
func SnoopBatch(p []byte) (desc string, ok bool) {
	var sizes []string
	for len(p) > 0 {
		n, bad := batchHeader(p)
		if bad || n == 0 {
			return "", false
		}
		if n > len(p) {
			sizes = append(sizes, fmt.Sprintf("%d of %d", len(p)-4, n-4))
			break
		}
		sizes = append(sizes, strconv.Itoa(n-4))
		p = p[n:]
	}
	if len(sizes) == 0 {
		return "", false
	}
	return fmt.Sprintf("batch(%d msgs: %s)", len(sizes), strings.Join(sizes, " ")), true
}

// SnoopPayload describes a transport payload that may be dressed by
// the line disciplines, peeling the stack outside-in. Compress sits
// nearest the wire, so its frame is the outer layer; when the whole
// frame is in this payload the helper recovers the plaintext (stored
// directly, LZ by the module's own expansion) and walks the batch
// frames inside.
func SnoopPayload(p []byte) (desc string, ok bool) {
	d, ok := SnoopCompress(p)
	if !ok {
		return SnoopBatch(p)
	}
	flags, ulen, n, _ := compressHeader(p)
	if len(p) < n {
		return d, true // partial frame: the header is all we can say
	}
	plain := p[compressHdrLen:n]
	if flags&cflagLZ != 0 {
		out := expandLZ(plain, ulen)
		if out == nil {
			return d, true
		}
		defer out.Free()
		plain = out.Bytes()
	}
	if inner, iok := SnoopBatch(plain); iok {
		return d + " " + inner, true
	}
	return d, true
}
