// Package orb is versadep's miniature object request broker — the stand-in
// for the TAO real-time ORB the paper runs its prototype on.
//
// The replicator only depends on the ORB's externally visible shape: a
// synchronous request/reply protocol (GIOP in the paper, VIOP here) with
// request identifiers, typed argument marshaling, and per-message marshal
// costs. VIOP reproduces that shape: requests and replies are encoded with
// the codec package (the CDR analogue), matched by request id, and every
// marshal/unmarshal crossing charges the cost model's ORBMarshal to the
// message ledger — which is how the evaluation harness regenerates the ORB
// share of Figure 3's round-trip breakdown.
//
// The client's transport is pluggable (the Wire interface): the baseline
// configuration uses a direct point-to-point wire, while the interceptor
// package substitutes wires that add interception costs or redirect the
// connection onto the group communication substrate — transparently to the
// code calling Invoke, exactly as library interposition is transparent to a
// CORBA application.
package orb

import (
	"errors"
	"fmt"

	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// Magic identifies VIOP messages on the wire ("VIOP" in ASCII).
const Magic uint32 = 0x56494F50

// MsgType discriminates VIOP messages.
type MsgType uint8

// VIOP message types.
const (
	MsgRequest MsgType = iota + 1
	MsgReply
)

// Status is the outcome of an invocation.
type Status uint8

// Reply statuses.
const (
	StatusOK Status = iota + 1
	StatusException
)

// Request is one VIOP invocation.
type Request struct {
	// ClientID identifies the calling process (its transport address);
	// combined with ReqID it names the invocation uniquely, which is what
	// replica-side duplicate suppression keys on.
	ClientID string
	// ReqID is the client's monotonically increasing request number.
	ReqID uint64
	// Object names the target servant.
	Object string
	// Operation names the method.
	Operation string
	// Args are the marshaled arguments.
	Args []codec.Value
}

// Reply is the response to a Request.
type Reply struct {
	ClientID string
	ReqID    uint64
	Status   Status
	// Results are the marshaled results (StatusOK).
	Results []codec.Value
	// ErrMsg carries the exception text (StatusException).
	ErrMsg string
}

// Errors returned by the ORB.
var (
	// ErrBadMagic reports a non-VIOP byte stream.
	ErrBadMagic = errors.New("orb: bad VIOP magic")
	// ErrBadType reports an unexpected VIOP message type.
	ErrBadType = errors.New("orb: unexpected VIOP message type")
	// ErrTimeout reports an invocation that received no reply in time.
	ErrTimeout = errors.New("orb: invocation timed out")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("orb: client closed")
)

// RemoteError is a servant exception propagated to the caller.
type RemoteError struct {
	Op  string
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("orb: remote exception in %s: %s", e.Op, e.Msg)
}

// EncodeRequest marshals r into VIOP bytes.
func EncodeRequest(r *Request) []byte { return encodeRequest(transport.Room{}, r).Bytes() }

// encodeRequest marshals r into one buffer with room around it for the
// layers that carry it to wrap it in place (see Wire.Room).
func encodeRequest(room transport.Room, r *Request) transport.Buf {
	size := 4 + 1 + codec.SizeString(r.ClientID) + 8 +
		codec.SizeString(r.Object) + codec.SizeString(r.Operation) + 4
	for _, a := range r.Args {
		size += codec.SizeValue(a)
	}
	m := transport.NewBuf(room, size)
	e := codec.AppendTo(m.Bytes()[:0])
	e.PutUint32(Magic)
	e.PutUint8(uint8(MsgRequest))
	e.PutString(r.ClientID)
	e.PutUint64(r.ReqID)
	e.PutString(r.Object)
	e.PutString(r.Operation)
	e.PutUint32(uint32(len(r.Args)))
	for _, a := range r.Args {
		e.PutValue(a)
	}
	return m
}

// DecodeRequest parses VIOP bytes into a Request whose byte arguments are
// read-only views of b (see decodeRequest).
func DecodeRequest(b []byte) (*Request, error) {
	var r Request
	if err := decodeRequest(b, nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// decodeRequest is DecodeRequest into *r, a request the caller owns (every
// field overwritten), reading the client, object and operation names
// through names: a receiver that decodes request after request from the
// same few clients materialises each name once (see codec.Names). The
// arguments are a fresh slice of values whose bytes, at any depth, are
// read-only windows onto b (codec.Decoder.ValueView): the servant reads
// them where they arrived (see Servant).
func decodeRequest(b []byte, names *codec.Names, r *Request) error {
	*r = Request{}
	d := codec.NewDecoder(b)
	if err := checkHeader(d, MsgRequest); err != nil {
		return err
	}
	var err error
	if r.ClientID, err = d.Name(names); err != nil {
		return err
	}
	if r.ReqID, err = d.Uint64(); err != nil {
		return err
	}
	if r.Object, err = d.Name(names); err != nil {
		return err
	}
	if r.Operation, err = d.Name(names); err != nil {
		return err
	}
	n, reserve, err := d.Count(codec.MinValueSize)
	if err != nil {
		return err
	}
	r.Args = make([]codec.Value, 0, reserve)
	for i := 0; i < n; i++ {
		v, err := d.ValueView()
		if err != nil {
			return err
		}
		r.Args = append(r.Args, v)
	}
	return nil
}

// EncodeReply marshals r into VIOP bytes. The encoding is deterministic, so
// replies from deterministic active replicas are byte-comparable — the
// property majority voting relies on.
func EncodeReply(r *Reply) []byte { return encodeReply(transport.Room{}, r).Bytes() }

// encodeReply marshals r into one buffer with room around it for the
// layers that carry it to wrap it in place.
func encodeReply(room transport.Room, r *Reply) transport.Buf {
	size := 4 + 1 + codec.SizeString(r.ClientID) + 8 + 1 +
		codec.SizeString(r.ErrMsg) + 4
	for _, v := range r.Results {
		size += codec.SizeValue(v)
	}
	m := transport.NewBuf(room, size)
	e := codec.AppendTo(m.Bytes()[:0])
	e.PutUint32(Magic)
	e.PutUint8(uint8(MsgReply))
	e.PutString(r.ClientID)
	e.PutUint64(r.ReqID)
	e.PutUint8(uint8(r.Status))
	e.PutString(r.ErrMsg)
	e.PutUint32(uint32(len(r.Results)))
	for _, v := range r.Results {
		e.PutValue(v)
	}
	return m
}

// DecodeReply parses VIOP bytes into a Reply.
func DecodeReply(b []byte) (*Reply, error) {
	var r Reply
	if err := decodeReply(b, nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// decodeReply is DecodeReply into *r, a reply the caller owns (every field
// overwritten), reading the client id through names.
func decodeReply(b []byte, names *codec.Names, r *Reply) error {
	*r = Reply{}
	d := codec.NewDecoder(b)
	if err := checkHeader(d, MsgReply); err != nil {
		return err
	}
	var err error
	if r.ClientID, err = d.Name(names); err != nil {
		return err
	}
	if r.ReqID, err = d.Uint64(); err != nil {
		return err
	}
	st, err := d.Uint8()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if r.ErrMsg, err = d.String(); err != nil {
		return err
	}
	n, reserve, err := d.Count(codec.MinValueSize)
	if err != nil {
		return err
	}
	r.Results = make([]codec.Value, 0, reserve)
	for i := 0; i < n; i++ {
		v, err := d.Value()
		if err != nil {
			return err
		}
		r.Results = append(r.Results, v)
	}
	return nil
}

// PeekRequestID extracts the (ClientID, ReqID) pair from encoded request
// bytes without a full decode. The replication engine uses it for duplicate
// suppression before paying the unmarshal cost. Peeking materialises
// nothing: the client id is a read-only window onto b, for the caller to
// compare, or to intern if it keeps it.
func PeekRequestID(b []byte) ([]byte, uint64, error) { return peekID(b, MsgRequest) }

func peekID(b []byte, want MsgType) ([]byte, uint64, error) {
	d := codec.NewDecoder(b)
	if err := checkHeader(d, want); err != nil {
		return nil, 0, err
	}
	cid, err := d.Bytes()
	if err != nil {
		return nil, 0, err
	}
	rid, err := d.Uint64()
	if err != nil {
		return nil, 0, err
	}
	return cid, rid, nil
}

// PeekRequestObject extracts the target object reference from encoded
// request bytes without a full decode. The shard router uses it to place
// each request on the consistent-hash ring before paying the unmarshal
// cost.
func PeekRequestObject(b []byte) (string, error) {
	d := codec.NewDecoder(b)
	if err := checkHeader(d, MsgRequest); err != nil {
		return "", err
	}
	if _, err := d.String(); err != nil { // ClientID
		return "", err
	}
	if _, err := d.Uint64(); err != nil { // ReqID
		return "", err
	}
	return d.String()
}

// PeekReplyID extracts the (ClientID, ReqID) pair from encoded reply bytes
// without a full decode, as PeekRequestID does for a request. The
// interceptor uses it to filter duplicate replies from active replicas.
func PeekReplyID(b []byte) ([]byte, uint64, error) { return peekID(b, MsgReply) }

// PeekReplyError extracts identity, status and exception text from
// encoded reply bytes without decoding the results. The shard router uses
// it to recognize stale-epoch NAKs in the reply stream while leaving
// ordinary replies untouched.
func PeekReplyError(b []byte) (cid string, rid uint64, status Status, errMsg string, err error) {
	d := codec.NewDecoder(b)
	if err = checkHeader(d, MsgReply); err != nil {
		return
	}
	if cid, err = d.String(); err != nil {
		return
	}
	if rid, err = d.Uint64(); err != nil {
		return
	}
	var st uint8
	if st, err = d.Uint8(); err != nil {
		return
	}
	status = Status(st)
	errMsg, err = d.String()
	return
}

func checkHeader(d *codec.Decoder, want MsgType) error {
	magic, err := d.Uint32()
	if err != nil {
		return err
	}
	if magic != Magic {
		return ErrBadMagic
	}
	t, err := d.Uint8()
	if err != nil {
		return err
	}
	if MsgType(t) != want {
		return fmt.Errorf("%w: got %d, want %d", ErrBadType, t, want)
	}
	return nil
}

// Servant is a deterministic application object. Implementations must be
// deterministic functions of (operation, args, prior state): active
// replication executes every invocation at every replica and relies on the
// replicas staying identical.
//
// Arguments are in-parameters, read-only as in CORBA's C++ mapping: the
// bytes of a KindBytes argument, at any depth of a list or map, are a view
// of the delivered request, which other replicas, the sender's
// retransmission buffer and a backup's log may share. A servant reads them
// during the call, copies whatever it keeps, and never writes to them. It
// may return an argument among its results: the reply is encoded, and the
// bytes copied, before the call returns.
type Servant interface {
	// Invoke executes one operation. A returned error becomes a
	// StatusException reply; it must be deterministic too.
	Invoke(op string, args []codec.Value) ([]codec.Value, error)
}

// ExecCoster is optionally implemented by servants whose virtual execution
// cost differs from the cost model's default AppProcess (e.g. workload
// servants that simulate heavier application logic).
type ExecCoster interface {
	ExecCost(op string, args []codec.Value) vtime.Duration
}
