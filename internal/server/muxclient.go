package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"parcube/internal/mux"
)

// MuxClient speaks the cube protocol over a multiplexed session: its
// methods are safe for concurrent use from many goroutines, all sharing
// one TCP connection, and each request carries its own deadline
// (mux.Options.RequestTimeout, or per call via the *Timeout variants)
// instead of the plain client's per-connection-turn accounting.
type MuxClient struct {
	s *mux.Session
}

// DialMux connects to a cube server and upgrades to the mux protocol.
func DialMux(addr string, o mux.Options) (*MuxClient, error) {
	s, err := mux.Dial(addr, o)
	if err != nil {
		return nil, err
	}
	return &MuxClient{s: s}, nil
}

// UpgradeMux runs the mux handshake on an established connection.
func UpgradeMux(conn net.Conn, o mux.Options) (*MuxClient, error) {
	s, err := mux.Upgrade(conn, o)
	if err != nil {
		return nil, err
	}
	return &MuxClient{s: s}, nil
}

// Session exposes the underlying mux session (window introspection,
// raw Do for load generators).
func (m *MuxClient) Session() *mux.Session { return m.s }

// Close shuts the session down; in-flight requests fail with
// mux.ErrClosed.
func (m *MuxClient) Close() error { return m.s.Close() }

// do sends one request body and splits the response into its reply-line
// payload and the remaining body (table rows).
func (m *MuxClient) do(req string, timeout time.Duration) (string, *bufio.Reader, error) {
	var body []byte
	var err error
	if timeout > 0 {
		body, err = m.s.DoTimeout([]byte(req), timeout)
	} else {
		body, err = m.s.Do([]byte(req))
	}
	if err != nil {
		return "", nil, err
	}
	br := bufio.NewReader(bytes.NewReader(body))
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return "", nil, fmt.Errorf("server: empty mux response")
	}
	payload, err := parseOK(line)
	if err != nil {
		return "", nil, err
	}
	return payload, br, nil
}

// table parses an "OK <n>" reply plus n rows from the response body.
func (m *MuxClient) table(req string, timeout time.Duration) ([]Row, error) {
	payload, br, err := m.do(req, timeout)
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(payload)
	if err != nil {
		return nil, fmt.Errorf("server: malformed count %q", payload)
	}
	return parseRows(br, n)
}

// Schema returns the served dimensions as name:size pairs.
func (m *MuxClient) Schema() ([]string, error) {
	payload, _, err := m.do("SCHEMA\n", 0)
	if err != nil {
		return nil, err
	}
	return strings.Fields(payload), nil
}

// Total returns the grand-total aggregate.
func (m *MuxClient) Total() (float64, error) {
	payload, _, err := m.do("TOTAL\n", 0)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(payload, 64)
}

// GroupBy fetches a full group-by.
func (m *MuxClient) GroupBy(dims ...string) ([]Row, error) {
	return m.table("GROUPBY "+strings.Join(dims, ",")+"\n", 0)
}

// GroupByTimeout is GroupBy with an explicit per-request deadline.
func (m *MuxClient) GroupByTimeout(d time.Duration, dims ...string) ([]Row, error) {
	return m.table("GROUPBY "+strings.Join(dims, ",")+"\n", d)
}

// Query runs a parcube query-language statement.
func (m *MuxClient) Query(stmt string) ([]Row, error) {
	return m.table("QUERY "+stmt+"\n", 0)
}

// Top fetches the k largest cells of a group-by.
func (m *MuxClient) Top(k int, dims ...string) ([]Row, error) {
	return m.table(fmt.Sprintf("TOP %d %s\n", k, strings.Join(dims, ",")), 0)
}

// Value returns one cell of a group-by.
func (m *MuxClient) Value(dims []string, coords []int) (float64, error) {
	req := "VALUE " + strings.Join(dims, ",")
	if len(coords) > 0 {
		req += " " + string(appendCoords(nil, coords))
	}
	payload, _, err := m.do(req+"\n", 0)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(payload, 64)
}

// Stats fetches the server's load counters as key=value fields.
func (m *MuxClient) Stats() (map[string]string, error) {
	payload, _, err := m.do("STATS\n", 0)
	if err != nil {
		return nil, err
	}
	return parseFields(payload), nil
}

// Delta ingests a batch of cells through the multiplexed connection;
// the whole payload travels inside one frame, so a shed delta cannot
// desync the stream.
func (m *MuxClient) Delta(rows []Row) (uint64, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("server: empty delta")
	}
	b := strconv.AppendInt([]byte("DELTA "), int64(len(rows)), 10)
	b = append(b, '\n')
	for _, row := range rows {
		b = appendRow(b, row.Coords, row.Value)
	}
	payload, _, err := m.do(string(append(b, ".\n"...)), 0)
	if err != nil {
		return 0, err
	}
	f := parseFields(payload)
	lsn, err := strconv.ParseUint(f["lsn"], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("server: malformed delta ack %q", payload)
	}
	return lsn, nil
}
