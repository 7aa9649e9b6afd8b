package slp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slmob/internal/geom"
)

// Client is a minimal metaverse client: it logs in as an avatar, can move
// and chat, and consumes map snapshots — the same capability set as the
// paper's libsecondlife-based crawler.
//
// A background goroutine demultiplexes inbound messages onto channels;
// Move/Chat/Subscribe are fire-and-forget writes and are safe for
// concurrent use.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	wmu  sync.Mutex

	// nr wraps the connection so the load harness can attribute inbound
	// bandwidth (BytesRead) to the session's subscription mix.
	nr *countingReader

	welcome Welcome

	maps     chan MapReply
	fullMaps chan MapReplyFull
	chats    chan ChatEvent
	pongs    chan Pong
	objs     chan ObjectReply

	// tracker materialises MapDelta pushes into full MapReply snapshots
	// on Maps(); only the read loop touches it. nDeltas counts applied
	// delta frames, so tests and harnesses can tell a delta subscription
	// was actually served as deltas. nPushes and nPushBytes count map
	// push frames and their wire bytes (framing included) at the read
	// loop, before any consumer-lag drops, so per-push bandwidth is
	// consistent and not diluted by chat and control traffic.
	tracker    DeltaTracker
	nDeltas    atomic.Uint64
	nPushes    atomic.Uint64
	nPushBytes atomic.Uint64

	done    chan struct{}
	errOnce sync.Once
	err     error
}

// countingReader counts bytes as they come off the socket.
type countingReader struct {
	r io.Reader
	n atomic.Uint64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(uint64(n))
	return n, err
}

// Dial connects, logs in as an avatar, and starts the read loop. The
// returned client must be closed with Close.
func Dial(addr, name, password string, timeout time.Duration) (*Client, error) {
	return dial(addr, name, password, false, timeout)
}

// DialObserver connects in observer mode: the server admits no avatar
// for the session and serves full-resolution MapReplyFull snapshots (see
// Hello.Observer). Estate monitors use it for measurement-grade crawls.
func DialObserver(addr, name, password string, timeout time.Duration) (*Client, error) {
	return dial(addr, name, password, true, timeout)
}

func dial(addr, name, password string, observer bool, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:     conn,
		bw:       bufio.NewWriter(conn),
		nr:       &countingReader{r: conn},
		maps:     make(chan MapReply, 64),
		fullMaps: make(chan MapReplyFull, 64),
		chats:    make(chan ChatEvent, 64),
		pongs:    make(chan Pong, 8),
		objs:     make(chan ObjectReply, 8),
		done:     make(chan struct{}),
	}
	if err := c.send(Hello{Version: Version, Name: name, Password: password, Observer: observer}); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	msg, err := ReadMessage(c.nr)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("slp: handshake read: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	switch v := msg.(type) {
	case Welcome:
		c.welcome = v
	case Error:
		conn.Close()
		return nil, fmt.Errorf("slp: login rejected (%d): %s", v.Code, v.Message)
	default:
		conn.Close()
		return nil, fmt.Errorf("slp: unexpected handshake reply %s", msg.Type())
	}
	go c.readLoop()
	return c, nil
}

// Welcome returns the login acknowledgement (avatar ID, land, warp).
func (c *Client) Welcome() Welcome { return c.welcome }

// Maps returns the channel of map snapshots (poll replies and
// subscription pushes). It is closed when the connection dies.
func (c *Client) Maps() <-chan MapReply { return c.maps }

// FullMaps returns the channel of full-resolution map snapshots served
// to observer sessions. It is closed when the connection dies.
func (c *Client) FullMaps() <-chan MapReplyFull { return c.fullMaps }

// Chats returns the channel of chat events heard near the avatar. It is
// closed when the connection dies.
func (c *Client) Chats() <-chan ChatEvent { return c.chats }

// Err returns the terminal connection error, if any.
func (c *Client) Err() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

// fail records the terminal error, signals done, and closes the
// connection, which unblocks the read loop. It leaves the delivery
// channels to the read loop, their only sender.
func (c *Client) fail(err error) {
	c.errOnce.Do(func() {
		c.err = err
		close(c.done)
		c.conn.Close()
	})
}

func (c *Client) readLoop() {
	// Closing a channel another goroutine may be sending on panics, so
	// the loop that sends on the delivery channels closes them, on exit.
	defer func() {
		close(c.maps)
		close(c.fullMaps)
		close(c.chats)
	}()
	for {
		// The loop is the reader goroutine, so the before/after byte
		// counts bracket exactly this message's frame.
		before := c.nr.n.Load()
		msg, err := ReadMessage(c.nr)
		if err != nil {
			c.fail(err)
			return
		}
		switch msg.(type) {
		case MapReply, MapDelta, MapReplyFull:
			c.nPushes.Add(1)
			c.nPushBytes.Add(c.nr.n.Load() - before)
		}
		switch v := msg.(type) {
		case MapReply:
			select {
			case c.maps <- v:
			default: // drop if the consumer lags; the next push supersedes
			}
		case MapDelta:
			// Deltas are applied here, in arrival order, so the tracker
			// never misses a frame even when the Maps consumer lags: only
			// the materialised snapshot is droppable, never the delta.
			if reply, ok := c.tracker.Apply(v); ok {
				c.nDeltas.Add(1)
				select {
				case c.maps <- reply:
				default:
				}
			}
		case MapReplyFull:
			select {
			case c.fullMaps <- v:
			default:
			}
		case ChatEvent:
			select {
			case c.chats <- v:
			default:
			}
		case Pong:
			select {
			case c.pongs <- v:
			default:
			}
		case ObjectReply:
			select {
			case c.objs <- v:
			default:
			}
		case Error:
			c.fail(fmt.Errorf("slp: server error (%d): %s", v.Code, v.Message))
			return
		default:
			// Ignore unexpected but well-formed messages.
		}
	}
}

func (c *Client) send(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := WriteMessage(c.bw, m); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Move relocates the avatar.
func (c *Client) Move(pos geom.Vec) error {
	return c.send(Move{Pos: pos})
}

// Chat says something in local chat.
func (c *Client) Chat(text string) error {
	return c.send(Chat{Text: text})
}

// RequestMap polls the coarse map once; the reply arrives on Maps.
func (c *Client) RequestMap() error {
	return c.send(MapRequest{})
}

// Subscribe asks for a map push every tau simulated seconds. Aligned
// anchors the pushes to absolute multiples of tau on the server clock,
// which estate monitors use to share one timeline across regions.
func (c *Client) Subscribe(tau int64, aligned bool) error {
	return c.send(Subscribe{Tau: tau, Aligned: aligned})
}

// SubscribeAOI asks for an area-of-interest subscription: pushes carry
// only entities within radius metres of the avatar. With delta true the
// pushes arrive as MapDelta frames, which the client materialises back
// into full MapReply snapshots on Maps() — a consumer cannot tell a
// delta subscription from a plain one except by its bandwidth.
func (c *Client) SubscribeAOI(tau int64, aligned bool, radius float64, delta bool) error {
	return c.send(Subscribe{Tau: tau, Aligned: aligned, Radius: radius, Delta: delta})
}

// BytesRead returns the total bytes received from the server so far,
// handshake included.
func (c *Client) BytesRead() uint64 { return c.nr.n.Load() }

// PushBytesRead returns the wire bytes (length framing included) of the
// map pushes received so far — MapReply, MapDelta, and MapReplyFull
// frames only, excluding chat and control traffic. The load harness
// divides it by PushesRead to report per-mix push bandwidth.
func (c *Client) PushBytesRead() uint64 { return c.nPushBytes.Load() }

// PushesRead returns the number of map-push frames received so far,
// counted at the same wire layer as PushBytesRead — a lagging consumer
// that drops materialised snapshots does not skew bytes-per-push.
func (c *Client) PushesRead() uint64 { return c.nPushes.Load() }

// DeltasApplied returns how many MapDelta frames the client has
// materialised into snapshots — zero for a plain subscription.
func (c *Client) DeltasApplied() uint64 { return c.nDeltas.Load() }

// CreateObject deploys a sensor object and waits for the acknowledgement.
func (c *Client) CreateObject(req ObjectCreate, timeout time.Duration) (ObjectReply, error) {
	if err := c.send(req); err != nil {
		return ObjectReply{}, err
	}
	select {
	case rep := <-c.objs:
		return rep, nil
	case <-c.done:
		return ObjectReply{}, c.err
	case <-time.After(timeout):
		return ObjectReply{}, fmt.Errorf("slp: object create timed out")
	}
}

// Ping round-trips a liveness probe and returns the server's sim time.
func (c *Client) Ping(timeout time.Duration) (int64, error) {
	if err := c.send(Ping{Seq: 1}); err != nil {
		return 0, err
	}
	select {
	case p := <-c.pongs:
		return p.SimTime, nil
	case <-c.done:
		return 0, c.err
	case <-time.After(timeout):
		return 0, fmt.Errorf("slp: ping timed out")
	}
}

// Close logs out and tears the connection down.
func (c *Client) Close() error {
	_ = c.send(Logout{})
	c.fail(fmt.Errorf("slp: client closed"))
	return nil
}

// directoryCall dials an estate directory endpoint, performs one
// request/reply exchange, and closes the connection.
func directoryCall(addr string, req Message, timeout time.Duration) (Message, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := WriteMessage(conn, req); err != nil {
		return nil, err
	}
	reply, err := ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("slp: directory read: %w", err)
	}
	if e, ok := reply.(Error); ok {
		return nil, fmt.Errorf("slp: directory refused (%d): %s", e.Code, e.Message)
	}
	return reply, nil
}

// FetchDirectory retrieves an estate's grid description from its
// directory endpoint: region names, addresses, placements, and the state
// of the shared clock.
func FetchDirectory(addr string, timeout time.Duration) (Directory, error) {
	reply, err := directoryCall(addr, DirectoryRequest{}, timeout)
	if err != nil {
		return Directory{}, err
	}
	dir, ok := reply.(Directory)
	if !ok {
		return Directory{}, fmt.Errorf("slp: unexpected directory reply %s", reply.Type())
	}
	return dir, nil
}

// StartEstateClock releases a held estate clock via the directory
// endpoint and returns the shared clock value (idempotent: starting a
// running clock is a no-op).
func StartEstateClock(addr string, timeout time.Duration) (int64, error) {
	reply, err := directoryCall(addr, ClockStart{}, timeout)
	if err != nil {
		return 0, err
	}
	started, ok := reply.(ClockStarted)
	if !ok {
		return 0, fmt.Errorf("slp: unexpected clock-start reply %s", reply.Type())
	}
	return started.SimTime, nil
}
