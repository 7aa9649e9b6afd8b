package slp

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// QueryClient is a synchronous client for the analytics query endpoint.
// Unlike Client it carries no read loop: the query protocol is strictly
// request/reply, so each call writes one Query and reads frames until
// the reply is complete. It is safe for concurrent use; calls serialise
// on an internal mutex (one outstanding request per connection).
type QueryClient struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration
}

// DialQuery connects to an analytics query endpoint. timeout bounds the
// dial and each subsequent request/reply exchange; zero means 10 s.
func DialQuery(addr string, timeout time.Duration) (*QueryClient, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &QueryClient{
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		timeout: timeout,
	}, nil
}

// Close closes the connection.
func (c *QueryClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// AnalysisResult is one reassembled analysis reply: the serialised blob
// (core.EncodeAnalysis format) plus the service metadata that framed it.
// Blob is nil when the service has no analysis yet for the request (no
// window sealed at query time).
type AnalysisResult struct {
	// Region is -1 for the estate-global analysis.
	Region int32
	// Window is the sealed-window index the blob covers, or -1 for a
	// cumulative reply.
	Window int64
	// SimTime is the shared clock at snapshot-publish time.
	SimTime int64
	// FirstWindow and Windows describe the retained window range at
	// reply time: indices [FirstWindow, FirstWindow+Windows) are sealed.
	FirstWindow int64
	Windows     int64
	// Sealed reports the run has ended (a cumulative reply is final).
	Sealed bool
	// Blob is the serialised Analysis; decode with core.DecodeAnalysis.
	Blob []byte
}

// maxAnalysisBlob bounds a reassembled blob (a corrupt Total field must
// not drive a huge allocation). 64 MiB is orders of magnitude above any
// real analysis.
const maxAnalysisBlob = 1 << 26

// Cumulative fetches the merge of every sealed window so far (the final
// whole-trace analysis once the run ends). region -1 selects the
// estate-global analysis; 0..R-1 a region-local one.
func (c *QueryClient) Cumulative(region int32) (*AnalysisResult, error) {
	return c.analysisCall(Query{Target: QueryCumulative, Region: region, Window: -1})
}

// WindowAt fetches one sealed window by index; window -1 selects the
// most recently sealed one.
func (c *QueryClient) WindowAt(region int32, window int64) (*AnalysisResult, error) {
	return c.analysisCall(Query{Target: QueryWindow, Region: region, Window: window})
}

// Stats fetches the service's counters.
func (c *QueryClient) Stats() (StatsReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	msg, err := c.call(Query{Target: QueryStats})
	if err != nil {
		return StatsReply{}, err
	}
	switch v := msg.(type) {
	case StatsReply:
		return v, nil
	case Error:
		return StatsReply{}, fmt.Errorf("slp: query refused: %s (%s)", v.Message, errCodeName(v.Code))
	default:
		return StatsReply{}, fmt.Errorf("slp: unexpected %s reply to stats query", msg.Type())
	}
}

func (c *QueryClient) analysisCall(q Query) (*AnalysisResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	msg, err := c.call(q)
	if err != nil {
		return nil, err
	}
	first, ok := msg.(AnalysisReply)
	if !ok {
		if e, isErr := msg.(Error); isErr {
			return nil, fmt.Errorf("slp: query refused: %s (%s)", e.Message, errCodeName(e.Code))
		}
		return nil, fmt.Errorf("slp: unexpected %s reply to analysis query", msg.Type())
	}
	res := &AnalysisResult{
		Region:      first.Region,
		Window:      first.Window,
		SimTime:     first.SimTime,
		FirstWindow: first.FirstWindow,
		Windows:     first.Windows,
		Sealed:      first.Sealed,
	}
	if first.Total == 0 {
		return res, nil
	}
	if first.Total > maxAnalysisBlob {
		return nil, &DecodeError{fmt.Errorf("slp: analysis blob claims %d bytes", first.Total)}
	}
	blob := make([]byte, first.Total)
	got := uint32(0)
	chunk := first
	for {
		if chunk.Offset != got || uint32(len(chunk.Chunk)) > first.Total-got {
			return nil, &DecodeError{fmt.Errorf("slp: analysis chunk at offset %d, want %d", chunk.Offset, got)}
		}
		copy(blob[got:], chunk.Chunk)
		got += uint32(len(chunk.Chunk))
		if got == first.Total {
			break
		}
		if len(chunk.Chunk) == 0 {
			return nil, &DecodeError{fmt.Errorf("slp: empty analysis chunk before blob end")}
		}
		next, err := c.read()
		if err != nil {
			return nil, err
		}
		chunk, ok = next.(AnalysisReply)
		if !ok {
			return nil, fmt.Errorf("slp: unexpected %s frame inside chunked analysis reply", next.Type())
		}
	}
	res.Blob = blob
	return res, nil
}

// call writes one query and reads the first reply frame, with the
// client's timeout applied to the whole exchange.
func (c *QueryClient) call(q Query) (Message, error) {
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	if err := WriteMessage(c.bw, q); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return c.read()
}

func (c *QueryClient) read() (Message, error) {
	return ReadMessage(c.br)
}

func errCodeName(code ErrCode) string {
	switch code {
	case ErrBadVersion:
		return "bad-version"
	case ErrLandFull:
		return "land-full"
	case ErrBadCredentials:
		return "bad-credentials"
	case ErrObjectsForbidden:
		return "objects-forbidden"
	case ErrBadRequest:
		return "bad-request"
	case ErrMalformed:
		return "malformed"
	default:
		return fmt.Sprintf("code-%d", byte(code))
	}
}
