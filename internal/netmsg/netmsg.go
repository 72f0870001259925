// Package netmsg is the single authority for the ASCII control
// messages of the paper's protocol devices (§2.3, §5): "connect",
// "announce", "reject", and the stream configuration verbs "push",
// "pop", and "hangup". Every producer of a ctl message formats it
// here; devices parse with Parse. A Write of a ctl verb spelled out
// elsewhere fails a scripts/check.sh grep, so the wire vocabulary
// cannot drift package by package, and FuzzCtl holds every formatter
// to what Parse reads back.
package netmsg

import "strings"

// Ctl verbs understood by the protocol devices and the stream system.
const (
	VerbConnect     = "connect"
	VerbAnnounce    = "announce"
	VerbReject      = "reject"
	VerbHangup      = "hangup"
	VerbPush        = "push"
	VerbPop         = "pop"
	VerbPromiscuous = "promiscuous"
	VerbTrace       = "trace"
)

// Connect formats the dial request written to a conversation's ctl
// file: "connect 135.104.9.31!564" (§2.3).
func Connect(addr string) string { return VerbConnect + " " + addr }

// ConnectLocal formats a connect carrying a local-address suffix,
// "connect addr local" — accepted and ignored by most networks (§5.1).
func ConnectLocal(addr, local string) string {
	return VerbConnect + " " + addr + " " + local
}

// Announce formats the request that prepares a conversation to
// receive calls at a local address (§5.2).
func Announce(addr string) string { return VerbAnnounce + " " + addr }

// Reject formats the refusal of an incoming call. Some networks carry
// the reason to the caller; IP networks ignore it (§5.2).
func Reject(reason string) string {
	if reason == "" {
		return VerbReject
	}
	return VerbReject + " " + reason
}

// Hangup returns the ctl message that tears a conversation down.
func Hangup() string { return VerbHangup }

// Push formats the stream configuration request that pushes a named
// processing module (§2.4.1). The module spec may carry arguments
// after the name — "batch 2048 2ms" — which the stream system hands
// to the module's Open hook.
func Push(module string) string { return VerbPush + " " + module }

// Pop returns the stream request that removes the top module (§2.4.1).
func Pop() string { return VerbPop }

// Promiscuous returns the Ethernet diagnostic request that makes a
// conversation receive a copy of every frame on the wire (§2.2).
func Promiscuous() string { return VerbPromiscuous }

// Trace formats the diagnostic request that arms ("on") or disarms
// ("off") a conversation's event ring, read back through its trace
// file.
func Trace(arg string) string { return VerbTrace + " " + arg }

// Parse splits a ctl message into its verb and argument. The argument
// is trimmed, so "connect  2048 " parses as ("connect", "2048").
func Parse(cmd string) (verb, arg string) {
	verb, arg, _ = strings.Cut(strings.TrimSpace(cmd), " ")
	return verb, strings.TrimSpace(arg)
}
