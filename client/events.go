// Streaming decoder for the /v1/events Server-Sent-Events feed.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/wire"
)

// Event re-exports the wire event for callers that only import client.
type Event = wire.Event

// EventStream is one open /v1/events subscription. Next decodes frames in
// order; Close tears the stream down (also unblocking a concurrent Next).
type EventStream struct {
	body io.ReadCloser
	br   *bufio.Reader

	// Reused from frame to frame: the frame's data, its event name, and a
	// line that outgrew br's buffer.
	data, name, long []byte
}

// maxLine bounds one line of the stream (the server's own body bound): a peer
// that never sends a newline fails the stream instead of growing it.
const maxLine = 1 << 20

// Events opens the daemon's event stream. Events published before the
// stream opens are not replayed. The stream ends — Next returns an error —
// when ctx is done, Close is called, or the daemon shuts down. Opening is
// not retried: a streaming subscription that silently reconnected would
// hide the gap in the event sequence.
func (c *Client) Events(ctx context.Context) (*EventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: opening event stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("client: opening event stream: http %d", resp.StatusCode)
	}
	return &EventStream{body: resp.Body, br: bufio.NewReader(resp.Body)}, nil
}

// Next blocks for the next event frame. The synthetic backpressure frame
// arrives as Type "dropped" with the Dropped count set — the daemon-side
// subscription lost that many events to a slow read loop. io.EOF (possibly
// wrapped) reports a cleanly closed stream.
func (s *EventStream) Next() (Event, error) {
	var ev Event
	s.data, s.name = s.data[:0], s.name[:0]
	for {
		line, err := s.readLine()
		if err != nil {
			if err == io.EOF && len(line) == 0 && len(s.data) == 0 && len(s.name) == 0 {
				return ev, io.EOF
			}
			return ev, fmt.Errorf("client: reading event stream: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if len(s.data) == 0 {
				continue // heartbeat or comment-only frame: keep reading
			}
			if !wire.DecodeEvent(s.data, &ev) {
				if err := json.Unmarshal(s.data, &ev); err != nil {
					return ev, fmt.Errorf("client: decoding event %q: %w", s.data, err)
				}
			}
			if ev.Type == "" {
				ev.Type = string(s.name)
			}
			return ev, nil
		case line[0] == ':':
			// comment frame (stream hello)
		case bytes.HasPrefix(line, []byte("event: ")):
			s.name = append(s.name[:0], line[len("event: "):]...)
		case bytes.HasPrefix(line, []byte("data: ")):
			s.data = append(s.data, line[len("data: "):]...)
		}
	}
}

// readLine returns the next line with its terminator, valid until the next
// call. One that fits br's buffer is a view of it.
func (s *EventStream) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	s.long = append(s.long[:0], line...)
	for err == bufio.ErrBufferFull {
		if len(s.long) > maxLine {
			return nil, fmt.Errorf("line exceeds %d bytes: %w", maxLine, err)
		}
		line, err = s.br.ReadSlice('\n')
		s.long = append(s.long, line...)
	}
	return s.long, err
}

// Close tears down the stream.
func (s *EventStream) Close() error { return s.body.Close() }
