// Oneway send scope: SyncScope selects how much of the send path a
// oneway invocation synchronises with, mirroring the CORBA Messaging
// SyncScope policy.
//
// Ownership discipline (DESIGN.md §12): the pooled request buffer never
// outlives the send — every transport path either writes it to the
// socket before returning or takes ownership explicitly (SendOwned).
package orb

import (
	"context"
	"errors"

	"corbalc/internal/giop"
)

// SyncScope selects how much of the send path a oneway invocation waits
// for, after CORBA Messaging's SyncScope policy.
type SyncScope int

const (
	// SyncWithTransport (the default) returns once the request has been
	// flushed to the transport: the caller knows the bytes reached the
	// socket, and keeps ownership of the request buffer throughout.
	SyncWithTransport SyncScope = iota
	// SyncNone returns as soon as the transport accepts the frame:
	// ownership of the request buffer transfers to the transport's write
	// path (the coalescer releases it after the batch flushes), and no
	// delivery outcome is reported — fire and forget.
	SyncNone
)

// OnewayChannel is optionally implemented by channels that can take
// ownership of a oneway frame instead of blocking until it is flushed
// (SyncNone). On success the message belongs to the channel, which
// releases it after the write completes; on error the caller retains
// ownership (and may retry another profile).
type OnewayChannel interface {
	SendOwned(ctx context.Context, req *giop.Message) error
}

// errNoSendOwned reports a pool stripe that does not implement
// OnewayChannel; the caller keeps the message and falls back to the
// synchronised Send.
var errNoSendOwned = errors.New("orb: channel cannot take ownership of a oneway")
