package wire

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/netshape"
	"repro/internal/trace"
)

// slowHelloProxy forwards TCP connections to backend, holding only the
// first server-to-client frame of each connection (the hello ack) for
// delay: one slow sample on an otherwise loopback link.
func slowHelloProxy(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				_ = client.Close()
				return
			}
			go func() {
				_, _ = io.Copy(server, client)
				_ = server.Close()
			}()
			go func() {
				defer client.Close()
				typ, payload, err := ReadFrame(server)
				if err != nil {
					return
				}
				time.Sleep(delay)
				if WriteFrame(client, typ, payload) != nil {
					return
				}
				_, _ = io.Copy(client, server)
			}()
		}
	}()
	return ln.Addr().String()
}

// drainCompressed seals one frame per batch, submits them, requires every
// frame acknowledged, and reports whether any frame was sealed compressed.
func drainCompressed(t *testing.T, c *Client, programID string, batches [][]*trace.Trace) bool {
	t.Helper()
	sealed := c.SealTraceBatches(programID, batches)
	compressed := false
	for _, sb := range sealed {
		compressed = compressed || sb.Compressed
	}
	accepted, err := c.SubmitSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range accepted {
		if !ok {
			t.Fatalf("frame %d not accepted", i)
		}
	}
	return compressed
}

// TestCompressionFollowsMinimumRTT: compression is decided from the
// fastest round trip the client has seen, not from the hello alone. A
// loopback link whose hello ack was held 10 ms starts out compressing and
// stops once fast acks arrive; a real 50 ms link never produces a fast
// sample and keeps compressing.
func TestCompressionFollowsMinimumRTT(t *testing.T) {
	p := buildCrashy(t)
	// 20-trace batches encode comfortably above the compression floor.
	batches := chunkTraces(makeTraces(t, p, 40), 20)

	t.Run("slow-hello-loopback", func(t *testing.T) {
		_, _, addr := coalesceFixture(t, p)
		client := Dial(slowHelloProxy(t, addr, 2*compressRTTFloor))
		defer client.Close()
		if err := client.Handshake(); err != nil {
			t.Fatal(err)
		}
		if !drainCompressed(t, client, p.ID, batches) {
			t.Fatal("a 10 ms hello did not engage compression")
		}
		// Every drain is one more RTT sample; loopback acks come back far
		// under the floor, so compression must switch off within a few.
		for round := 0; round < 50; round++ {
			if !drainCompressed(t, client, p.ID, batches) {
				return
			}
		}
		t.Fatal("client kept compressing on loopback after 50 fast drains")
	})

	t.Run("rtt=50ms", func(t *testing.T) {
		_, _, addr := coalesceFixture(t, p)
		proxy, err := netshape.New(addr, netshape.Config{RTT: 50 * time.Millisecond, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		client := Dial(proxy.Addr())
		defer client.Close()
		for round := 0; round < 3; round++ {
			if !drainCompressed(t, client, p.ID, batches) {
				t.Fatalf("round %d: a 50 ms link stopped compressing", round)
			}
		}
		if _, err := client.Guidance(p.ID, 1); err != nil {
			t.Fatal(err)
		}
		if !drainCompressed(t, client, p.ID, batches) {
			t.Fatal("a 50 ms link stopped compressing after a guidance call")
		}
	})
}
