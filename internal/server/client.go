package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"parcube/internal/mux"
)

// Client speaks the cube server protocol.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
}

// RemoteError is an application-level "ERR ..." reply from the server:
// the request was rejected but the connection is alive and in sync.
// Callers distinguish it (errors.As) from transport failures, which
// leave the stream unusable — a coordinator marks a replica down on a
// transport error but not on a clean rejection.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "server: " + e.Msg }

// Row is one cell returned by GroupBy or Top.
type Row struct {
	Coords []int
	Value  float64
}

// Dial connects to a cube server with no bound on the dial: the
// documented blocking variant for interactive tools. Servers and
// coordinators use DialTimeout.
func Dial(addr string) (*Client, error) {
	//cubelint:ignore deadline Dial is the documented unbounded variant; bounded callers use DialTimeout
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// DialTimeout connects with a bound on the dial itself; d <= 0 dials like
// Dial. Request timeouts are separate — see SetTimeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	if d <= 0 {
		return Dial(addr)
	}
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// SetTimeout bounds every subsequent request: the connection deadline is
// armed once as a request starts to be written and once as its reply
// starts to be read, so the whole upload and the whole reply — header,
// every row, terminator — must each complete within d. A stalled, dead
// or trickling server surfaces as an i/o timeout instead of blocking
// forever. Zero (the default) means no deadline.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Addr returns the remote address the client dialed.
func (c *Client) Addr() string { return c.conn.RemoteAddr().String() }

// arm refreshes the connection deadline when a timeout is configured.
func (c *Client) arm() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

// Close sends QUIT and closes the connection. The first error from the
// farewell write, the flush, or the close is returned.
func (c *Client) Close() error {
	c.arm()
	_, werr := fmt.Fprintln(c.w, "QUIT")
	ferr := c.w.Flush()
	cerr := c.conn.Close()
	if werr != nil {
		return werr
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}

// roundTrip sends one request line and returns the "OK ..." payload,
// leaving any body of the reply to the caller under the same deadline.
func (c *Client) roundTrip(req string) (string, error) {
	c.arm()
	c.w.WriteString(req)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	c.arm()
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return parseOK(line)
}

// parseOK extracts the payload of an "OK ..." reply line. "ERR ..."
// replies become a *RemoteError; admission rejections additionally
// satisfy errors.Is(err, mux.ErrOverloaded) so callers can tell
// overload shedding from a request the server considered invalid.
func parseOK(line string) (string, error) {
	line = strings.TrimSpace(line)
	if msg, ok := strings.CutPrefix(line, "ERR "); ok {
		if mux.IsOverloadReply(msg) {
			return "", fmt.Errorf("%w: %w", mux.ErrOverloaded, &RemoteError{Msg: msg})
		}
		return "", &RemoteError{Msg: msg}
	}
	if !strings.HasPrefix(line, "OK") {
		return "", fmt.Errorf("server: malformed response %q", line)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, "OK")), nil
}

// Schema returns the served dimensions as name:size pairs.
func (c *Client) Schema() ([]string, error) {
	payload, err := c.roundTrip("SCHEMA")
	if err != nil {
		return nil, err
	}
	return strings.Fields(payload), nil
}

// Total returns the grand-total aggregate.
func (c *Client) Total() (float64, error) {
	payload, err := c.roundTrip("TOTAL")
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(payload, 64)
}

// Value returns one cell of a group-by.
func (c *Client) Value(dims []string, coords []int) (float64, error) {
	req := "VALUE " + strings.Join(dims, ",")
	if len(coords) > 0 {
		req += " " + string(appendCoords(nil, coords))
	}
	payload, err := c.roundTrip(req)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(payload, 64)
}

// maxRowPrealloc caps the capacity hint taken from a server's row-count
// reply: the count is untrusted wire input, so a malicious "OK 1000000000"
// must not force a giant allocation before any row arrives (cubelint
// untrusted-alloc). Larger results grow normally via append.
const maxRowPrealloc = 4096

// parseRows decodes n "coords value" lines plus the closing dot from any
// reader — the live connection (under the deadline roundTrip armed for
// the whole reply), or a mux response body in MuxClient.
func parseRows(r *bufio.Reader, n int) ([]Row, error) {
	rows := make([]Row, 0, min(n, maxRowPrealloc))
	var backing []int
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "." {
			break
		}
		row, err := parseRow(line, &backing)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if len(rows) != n {
		return nil, fmt.Errorf("server: got %d rows, expected %d", len(rows), n)
	}
	return rows, nil
}

// GroupBy fetches a full group-by.
func (c *Client) GroupBy(dims ...string) ([]Row, error) {
	payload, err := c.roundTrip("GROUPBY " + strings.Join(dims, ","))
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(payload)
	if err != nil {
		return nil, fmt.Errorf("server: malformed count %q", payload)
	}
	return parseRows(c.r, n)
}

// Query runs a parcube query-language statement and returns its table's
// cells.
func (c *Client) Query(stmt string) ([]Row, error) {
	payload, err := c.roundTrip("QUERY " + stmt)
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(payload)
	if err != nil {
		return nil, fmt.Errorf("server: malformed count %q", payload)
	}
	return parseRows(c.r, n)
}

// GroupBySlab fetches a shard node's slab of a group-by (SLAB GROUPBY):
// the cells its block contributes, in binary.
func (c *Client) GroupBySlab(dims ...string) (*Slab, error) {
	return c.slab("SLAB GROUPBY " + strings.Join(dims, ","))
}

// QuerySlab fetches a shard node's slab of a query-language statement
// (SLAB QUERY).
func (c *Client) QuerySlab(stmt string) (*Slab, error) {
	return c.slab("SLAB QUERY " + stmt)
}

// slab runs one SLAB request and decodes the reply.
func (c *Client) slab(req string) (*Slab, error) {
	payload, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	return decodeSlab(c.r, payload)
}

// parseFields splits a "k=v k=v ..." payload into a map.
func parseFields(payload string) map[string]string {
	out := make(map[string]string)
	for _, f := range strings.Fields(payload) {
		if i := strings.IndexByte(f, '='); i > 0 {
			out[f[:i]] = f[i+1:]
		}
	}
	return out
}

// ShardInfo fetches the shard handshake: the node id, aggregation
// operator name, and served block of a shard server, as "id"/"op"/"block"
// keys. Non-shard servers answer with an error.
func (c *Client) ShardInfo() (map[string]string, error) {
	payload, err := c.roundTrip("SHARDINFO")
	if err != nil {
		return nil, err
	}
	return parseFields(payload), nil
}

// Stats fetches the server's load counters as key=value fields.
func (c *Client) Stats() (map[string]string, error) {
	payload, err := c.roundTrip("STATS")
	if err != nil {
		return nil, err
	}
	return parseFields(payload), nil
}

// writeDeltaPayload streams the rows of a DELTA request plus the
// terminating dot under one deadline for the whole upload.
func (c *Client) writeDeltaPayload(req string, rows []Row) error {
	c.arm()
	c.w.WriteString(req)
	c.w.WriteByte('\n')
	writeRows(c.w, rows)
	c.w.WriteString(".\n")
	return c.w.Flush()
}

// writeRows writes rows as text lines; a failed write surfaces at the
// caller's Flush, which reports the writer's sticky error.
func writeRows(w *bufio.Writer, rows []Row) {
	buf := make([]byte, 0, 64)
	for _, row := range rows {
		buf = appendRow(buf[:0], row.Coords, row.Value)
		w.Write(buf)
	}
}

// readDeltaReply parses the "lsn=<n> applied=<0|1>" acknowledgement.
func (c *Client) readDeltaReply() (uint64, bool, error) {
	c.arm()
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, false, err
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "ERR ") {
		return 0, false, &RemoteError{Msg: strings.TrimPrefix(line, "ERR ")}
	}
	if !strings.HasPrefix(line, "OK") {
		return 0, false, fmt.Errorf("server: malformed response %q", line)
	}
	f := parseFields(strings.TrimSpace(strings.TrimPrefix(line, "OK")))
	lsn, err := strconv.ParseUint(f["lsn"], 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("server: malformed delta ack %q", line)
	}
	return lsn, f["applied"] == "1", nil
}

// Delta ingests a batch of cells, letting the server assign the LSN. The
// returned LSN is durable when the call succeeds.
func (c *Client) Delta(rows []Row) (uint64, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("server: empty delta")
	}
	if err := c.writeDeltaPayload(fmt.Sprintf("DELTA %d", len(rows)), rows); err != nil {
		return 0, err
	}
	lsn, _, err := c.readDeltaReply()
	return lsn, err
}

// DeltaAt ingests a batch at an exact LSN (replica lockstep); applied is
// false when the server had already ingested that LSN.
func (c *Client) DeltaAt(lsn uint64, rows []Row) (bool, error) {
	if len(rows) == 0 {
		return false, fmt.Errorf("server: empty delta")
	}
	if err := c.writeDeltaPayload(fmt.Sprintf("DELTA %d %d", len(rows), lsn), rows); err != nil {
		return false, err
	}
	_, applied, err := c.readDeltaReply()
	return applied, err
}

// DeltaBatch ingests a run of records in one DELTABATCH round trip:
// every applied record is durable — under a single group-committed log
// write on durable nodes — when the call returns. Each record carries
// its own LSN (0 lets the server assign the next one; replica lockstep
// sends exact positions). lastLSN is the server's log position after
// the batch and applied how many records it applied; a clean rejection
// of record i surfaces as a *RemoteError with the records before i
// applied and durable on the server.
func (c *Client) DeltaBatch(recs []LoggedDelta) (lastLSN uint64, applied int, err error) {
	if len(recs) == 0 {
		return 0, 0, fmt.Errorf("server: empty delta batch")
	}
	for _, rec := range recs {
		if len(rec.Rows) == 0 {
			return 0, 0, fmt.Errorf("server: empty record in delta batch")
		}
	}
	c.arm()
	if _, err := fmt.Fprintf(c.w, "DELTABATCH %d\n", len(recs)); err != nil {
		return 0, 0, err
	}
	for _, rec := range recs {
		if _, err := fmt.Fprintf(c.w, "%d %d\n", len(rec.Rows), rec.LSN); err != nil {
			return 0, 0, err
		}
		writeRows(c.w, rec.Rows)
	}
	c.w.WriteString(".\n")
	if err := c.w.Flush(); err != nil {
		return 0, 0, err
	}
	c.arm()
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, 0, err
	}
	payload, err := parseOK(line)
	if err != nil {
		return 0, 0, err
	}
	f := parseFields(payload)
	if lastLSN, err = strconv.ParseUint(f["lsn"], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("server: malformed batch ack %q", line)
	}
	if applied, err = strconv.Atoi(f["applied"]); err != nil {
		return 0, 0, fmt.Errorf("server: malformed batch ack %q", line)
	}
	return lastLSN, applied, nil
}

// LoggedRow is one cell of a durable delta record fetched by DeltasSince.
type LoggedRow struct {
	LSN uint64
	Row Row
}

// DeltasSince fetches the peer's durable log tail past lsn, one entry
// per logged cell; cells of the same record share an LSN and arrive
// consecutively in LSN order.
func (c *Client) DeltasSince(lsn uint64) ([]LoggedRow, error) {
	payload, err := c.roundTrip(fmt.Sprintf("DELTASINCE %d", lsn))
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(payload)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("server: malformed count %q", payload)
	}
	out := make([]LoggedRow, 0, min(n, maxRowPrealloc))
	var backing []int
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "." {
			break
		}
		lsnField, rest, _ := strings.Cut(line, " ")
		recLSN, err := strconv.ParseUint(lsnField, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server: malformed logged row %q", line)
		}
		row, err := parseRow(strings.TrimLeft(rest, " "), &backing)
		if err != nil {
			return nil, err
		}
		out = append(out, LoggedRow{LSN: recLSN, Row: row})
	}
	if len(out) != n {
		return nil, fmt.Errorf("server: got %d logged rows, expected %d", len(out), n)
	}
	return out, nil
}

// Truncate asks the peer to durably discard every logged record with
// LSN above lsn and rebuild its state without them (rejoin divergence
// repair). It returns the peer's last LSN after the truncation.
func (c *Client) Truncate(lsn uint64) (uint64, error) {
	payload, err := c.roundTrip(fmt.Sprintf("TRUNCATE %d", lsn))
	if err != nil {
		return 0, err
	}
	f := parseFields(payload)
	last, err := strconv.ParseUint(f["lsn"], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("server: malformed truncate ack %q", payload)
	}
	return last, nil
}

// CkptExport asks a durable node to publish a fresh checkpoint and
// stream it back: the donor side of a migration's state transfer.
func (c *Client) CkptExport() (lsn uint64, state []byte, err error) {
	payload, err := c.roundTrip("CKPTEXPORT")
	if err != nil {
		return 0, nil, err
	}
	f := parseFields(payload)
	if lsn, err = strconv.ParseUint(f["lsn"], 10, 64); err != nil {
		return 0, nil, fmt.Errorf("server: malformed export header %q", payload)
	}
	n, err := strconv.ParseInt(f["bytes"], 10, 64)
	if err != nil || n < 0 || n > maxShipBytes {
		return 0, nil, fmt.Errorf("server: implausible export size %q", f["bytes"])
	}
	state = make([]byte, n)
	c.arm()
	if _, err := io.ReadFull(c.r, state); err != nil {
		return 0, nil, err
	}
	return lsn, state, nil
}

// ShipCkpt transfers an exported checkpoint to a fresh node, which
// adopts it as its durable base (SHIPCKPT); only empty nodes accept.
func (c *Client) ShipCkpt(lsn uint64, state []byte) error {
	c.arm()
	if _, err := fmt.Fprintf(c.w, "SHIPCKPT %d %d\n", lsn, len(state)); err != nil {
		return err
	}
	c.arm()
	if _, err := c.w.Write(state); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.arm()
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	_, err = parseOK(line)
	return err
}

// Join asks a coordinator's elastic controller to migrate the shard
// node at addr into the cluster.
func (c *Client) Join(addr string) error {
	_, err := c.roundTrip("JOIN " + addr)
	return err
}

// Drain asks a coordinator's elastic controller to migrate every group
// off the node at addr and retire it from the serving set.
func (c *Client) Drain(addr string) error {
	_, err := c.roundTrip("DRAIN " + addr)
	return err
}

// Rebalance asks a coordinator's elastic controller to re-plan over
// nodes shard nodes and execute the minimal migration set; it returns
// how many groups moved.
func (c *Client) Rebalance(nodes int) (int, error) {
	payload, err := c.roundTrip(fmt.Sprintf("REBALANCE %d", nodes))
	if err != nil {
		return 0, err
	}
	f := parseFields(payload)
	moves, err := strconv.Atoi(f["moves"])
	if err != nil {
		return 0, fmt.Errorf("server: malformed rebalance ack %q", payload)
	}
	return moves, nil
}

// Top fetches the k largest cells of a group-by.
func (c *Client) Top(k int, dims ...string) ([]Row, error) {
	payload, err := c.roundTrip(fmt.Sprintf("TOP %d %s", k, strings.Join(dims, ",")))
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(payload)
	if err != nil {
		return nil, fmt.Errorf("server: malformed count %q", payload)
	}
	return parseRows(c.r, n)
}
