package slp

import (
	"net"
	"testing"
	"time"

	"slmob/internal/geom"
)

// pushServer accepts one session, completes the handshake, and then
// pushes map, full-map and chat frames as fast as the socket takes them
// until the client goes away.
func pushServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := ReadMessage(conn); err != nil {
			return
		}
		if err := WriteMessage(conn, Welcome{AvatarID: 1, Land: "push", Size: 256}); err != nil {
			return
		}
		frames := []Message{
			MapReply{SimTime: 1, Entries: []MapEntry{{ID: 2, Pos: geom.V2(10, 20)}}},
			MapReplyFull{SimTime: 1, Entries: []FullEntry{{ID: 2, Pos: geom.V2(10, 20), Seated: true}}},
			ChatEvent{From: 2, Pos: geom.V2(10, 20), Text: "hi"},
		}
		for i := 0; ; i++ {
			if err := WriteMessage(conn, frames[i%len(frames)]); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestCloseDuringPushes closes clients while the server pushes at full
// rate. Close used to close the delivery channels from the caller's
// goroutine while the read loop could be mid-send ("send on closed
// channel"); now the read loop closes them, so Close never panics and
// every delivery channel still closes once the connection is down.
func TestCloseDuringPushes(t *testing.T) {
	for round := 0; round < 20; round++ {
		c, err := Dial(pushServer(t), "closer", "", 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Let pushes fill the buffers, then close with the read loop busy.
		for c.PushesRead() < 200 {
			time.Sleep(100 * time.Microsecond)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c.Err() == nil {
			t.Fatal("Err is nil after Close")
		}
		deadline := time.After(5 * time.Second)
		for _, drained := range []func() bool{
			func() bool { _, ok := <-c.Maps(); return !ok },
			func() bool { _, ok := <-c.FullMaps(); return !ok },
			func() bool { _, ok := <-c.Chats(); return !ok },
		} {
			done := make(chan struct{})
			go func() {
				for !drained() {
				}
				close(done)
			}()
			select {
			case <-done:
			case <-deadline:
				t.Fatalf("round %d: a delivery channel stayed open after Close", round)
			}
		}
	}
}
