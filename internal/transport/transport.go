// Package transport defines the messaging interfaces that the membership
// service is written against. Two implementations exist in this repository:
// an in-process simulated network with fault injection (package simnet) used
// by tests, experiments and benchmarks, and a TCP transport (package tcpnet)
// used by the standalone agent binary.
package transport

import (
	"context"
	"errors"

	"repro/internal/node"
	"repro/internal/remoting"
)

// ErrUnreachable is returned when a destination cannot be reached, whether
// because it does not exist, has crashed, or a fault rule dropped the message.
var ErrUnreachable = errors.New("transport: destination unreachable")

// ErrTimeout is returned when a request did not complete within its deadline.
var ErrTimeout = errors.New("transport: request timed out")

// Handler processes an inbound request and produces a response. A membership
// service instance implements Handler.
type Handler interface {
	HandleRequest(ctx context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error)

// HandleRequest implements Handler.
func (f HandlerFunc) HandleRequest(ctx context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error) {
	return f(ctx, from, req)
}

// Client sends requests to other processes on behalf of one local process.
type Client interface {
	// Send delivers a request and waits for the response or an error.
	Send(ctx context.Context, to node.Addr, req *remoting.Request) (*remoting.Response, error)
	// SendBestEffort delivers a request asynchronously, ignoring the response
	// and any delivery failure; the TCP transport asks for no response at
	// all. Alert batches and consensus votes use this.
	SendBestEffort(to node.Addr, req *remoting.Request)
}

// Network is the factory interface shared by the simulated and real networks:
// it binds a handler to an address and hands out clients for that address.
type Network interface {
	// Register binds handler to addr so other processes can reach it.
	Register(addr node.Addr, handler Handler) error
	// Deregister removes the binding, making the address unreachable.
	Deregister(addr node.Addr)
	// Client returns a Client whose messages originate from addr.
	Client(addr node.Addr) Client
}
