// Package xport is the transport skeleton behind the paper's protocol
// devices (§2.3): "All protocol devices look identical so user programs
// contain no network-specific code."
//
// Proto and Conn are the interface TCP, UDP, IL, URP/Datakit, and the
// Cyclone link all implement and the netdev package serves as the
// standard clone/n/{ctl,data,listen,local,remote,status} file tree.
//
// Table, Conv and RTT are the scaffold IL and TCP embed by value so
// that il.go and tcp.go hold only their protocols: a machine's endpoint
// table for one protocol, one conversation's share of it, and the
// round-trip estimator both retransmission timers read. UDP has no
// calls, timers or round trips; it borrows only the port allocator and
// the announce-address parser.
package xport

import "errors"

// Conn is one conversation of some protocol.
type Conn interface {
	// Connect dials the protocol-specific ASCII address written to
	// the ctl file, e.g. "135.104.9.31!17008" for the IP protocols.
	Connect(addr string) error
	// Announce prepares the conversation to receive calls at the
	// given local address, e.g. "*!564" or "564".
	Announce(addr string) error
	// Listen blocks until an incoming call arrives on an announced
	// conversation and returns the new conversation for the call —
	// the semantics of opening the listen file.
	Listen() (Conn, error)
	// Read returns received data; message protocols preserve write
	// delimiters, byte-stream protocols do not.
	Read(p []byte) (int, error)
	// Write queues data for transmission.
	Write(p []byte) (int, error)
	// LocalAddr and RemoteAddr return the ASCII endpoints, as the
	// local and remote files report them.
	LocalAddr() string
	RemoteAddr() string
	// Status returns the ASCII state line of the status file.
	Status() string
	// Close releases the conversation.
	Close() error
}

// Proto is a protocol device: a factory for conversations, served as a
// directory under /net.
type Proto interface {
	// Name is the device name: "tcp", "udp", "il", "dk", "cyc".
	Name() string
	// NewConn reserves a fresh conversation (the clone file).
	NewConn() (Conn, error)
}

// Errors shared by transports.
var (
	ErrBadAddress   = errors.New("bad network address")
	ErrNotAnnounced = errors.New("listen on unannounced connection")
	ErrInUse        = errors.New("address in use")
	ErrNotConnected = errors.New("not connected")
	ErrConnected    = errors.New("already connected")
)
