package orb

import (
	"fmt"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
)

// CompletionStatus tells a client how far an operation got before a
// system exception was raised.
type CompletionStatus uint32

// Completion status codes (CORBA 2.4 §4.11).
const (
	CompletedYes   CompletionStatus = 0
	CompletedNo    CompletionStatus = 1
	CompletedMaybe CompletionStatus = 2
)

func (c CompletionStatus) String() string {
	switch c {
	case CompletedYes:
		return "COMPLETED_YES"
	case CompletedNo:
		return "COMPLETED_NO"
	case CompletedMaybe:
		return "COMPLETED_MAYBE"
	}
	return fmt.Sprintf("CompletionStatus(%d)", uint32(c))
}

// SystemException is a CORBA standard exception: a well-known repository
// ID plus a minor code and completion status. It crosses the wire in
// Reply messages with status SYSTEM_EXCEPTION.
type SystemException struct {
	Name      string // e.g. "OBJECT_NOT_EXIST"
	Minor     uint32
	Completed CompletionStatus
}

func (e *SystemException) Error() string {
	return fmt.Sprintf("CORBA::%s (minor=%d, %v)", e.Name, e.Minor, e.Completed)
}

// RepoID returns the OMG repository ID of the exception.
func (e *SystemException) RepoID() string {
	return "IDL:omg.org/CORBA/" + e.Name + ":1.0"
}

// Standard system exceptions used by CORBA-LC.
func ObjectNotExist() *SystemException {
	return &SystemException{Name: "OBJECT_NOT_EXIST", Completed: CompletedNo}
}
func BadOperation() *SystemException {
	return &SystemException{Name: "BAD_OPERATION", Completed: CompletedNo}
}
func Marshal() *SystemException {
	return &SystemException{Name: "MARSHAL", Completed: CompletedMaybe}
}
func CommFailure() *SystemException {
	return &SystemException{Name: "COMM_FAILURE", Completed: CompletedMaybe}
}
func Transient() *SystemException {
	return &SystemException{Name: "TRANSIENT", Completed: CompletedNo}
}
func NoImplement() *SystemException {
	return &SystemException{Name: "NO_IMPLEMENT", Completed: CompletedNo}
}
func Unknown() *SystemException {
	return &SystemException{Name: "UNKNOWN", Completed: CompletedMaybe}
}
func Timeout() *SystemException {
	return &SystemException{Name: "TIMEOUT", Completed: CompletedMaybe}
}

// marshalSystemException writes the Reply body for a system exception.
func marshalSystemException(e *cdr.Encoder, se *SystemException) {
	e.WriteString(se.RepoID())
	e.WriteULong(se.Minor)
	e.WriteULong(uint32(se.Completed))
}

// unmarshalSystemException reads a SYSTEM_EXCEPTION reply body.
func unmarshalSystemException(d *cdr.Decoder) (*SystemException, error) {
	id, err := d.ReadString()
	if err != nil {
		return nil, err
	}
	minor, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	comp, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	name := id
	// Strip "IDL:omg.org/CORBA/" prefix and ":1.0" suffix when present.
	const pre, suf = "IDL:omg.org/CORBA/", ":1.0"
	if len(name) > len(pre)+len(suf) && name[:len(pre)] == pre && name[len(name)-len(suf):] == suf {
		name = name[len(pre) : len(name)-len(suf)]
	}
	return &SystemException{Name: name, Minor: minor, Completed: CompletionStatus(comp)}, nil
}

// UserException is an application-defined exception declared in IDL. A
// servant raises one by returning it (or an error wrapping it) from
// InvokeContext; the payload marshaller, if any, contributes exception members
// after the repository ID.
type UserException struct {
	ID      string             // repository ID, e.g. "IDL:corbalc/Node/NotFound:1.0"
	Payload func(*cdr.Encoder) // members, server side (may be nil)
	Body    *cdr.Decoder       // members, client side (nil until received)
}

func (e *UserException) Error() string { return "user exception " + e.ID }

// SystemExceptionReply builds a complete GIOP Reply carrying se, for
// transports that must answer a request they will not dispatch (e.g. a
// dispatch-queue overflow refused with TRANSIENT). The returned message
// is pooled: the caller owns it and must Release it once written.
func SystemExceptionReply(v giop.Version, order cdr.ByteOrder, reqID uint32, se *SystemException) (*giop.Message, error) {
	out := giop.GetBodyEncoder(order)
	if _, err := giop.EncodeReplyPrelude(out, v, reqID, giop.ReplySystemException); err != nil {
		out.Release()
		return nil, err
	}
	giop.AlignBody(out, v)
	marshalSystemException(out, se)
	return giop.MessageFromEncoder(giop.Header{Version: v, Order: order, Type: giop.MsgReply}, out), nil
}
