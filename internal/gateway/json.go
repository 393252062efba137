package gateway

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"

	"corbalc/internal/idl"
	"corbalc/internal/ior"
)

// JSON↔IDL value translation. Inbound, the gateway converts the generic
// tree encoding/json produces (map[string]any / []any / float64 /
// string / bool / nil) into the Go value mapping internal/idl's dynamic
// marshaller expects; outbound it converts decoded reply values into a
// tree encoding/json renders naturally. Every inbound mismatch is a
// *translateError, which the handler answers with 400 — a malformed
// request must never reach the wire as a half-marshalled CDR body.

// translateError is a client-side translation failure (HTTP 400).
type translateError struct{ msg string }

func (e *translateError) Error() string { return e.msg }

func badValue(format string, args ...any) error {
	return &translateError{msg: fmt.Sprintf(format, args...)}
}

// jsonToIDL converts one decoded JSON value to the Go value the dynamic
// marshaller expects for IDL type t.
func jsonToIDL(t *idl.Type, v any) (any, error) {
	rt := t.Resolve()
	switch rt.Kind {
	case idl.KindBoolean:
		b, ok := v.(bool)
		if !ok {
			return nil, badValue("expected boolean, got %s", jsonKind(v))
		}
		return b, nil
	case idl.KindOctet, idl.KindChar:
		i, err := jsonInt(v, 0, 255)
		if err != nil {
			return nil, err
		}
		return byte(i), nil
	case idl.KindShort:
		i, err := jsonInt(v, math.MinInt16, math.MaxInt16)
		if err != nil {
			return nil, err
		}
		return int16(i), nil
	case idl.KindUShort:
		i, err := jsonInt(v, 0, math.MaxUint16)
		if err != nil {
			return nil, err
		}
		return uint16(i), nil
	case idl.KindLong:
		i, err := jsonInt(v, math.MinInt32, math.MaxInt32)
		if err != nil {
			return nil, err
		}
		return int32(i), nil
	case idl.KindULong:
		i, err := jsonInt(v, 0, math.MaxUint32)
		if err != nil {
			return nil, err
		}
		return uint32(i), nil
	case idl.KindLongLong:
		i, err := jsonInt(v, math.MinInt64, math.MaxInt64)
		if err != nil {
			return nil, err
		}
		return i, nil
	case idl.KindULongLong:
		i, err := jsonInt(v, 0, math.MaxInt64)
		if err != nil {
			return nil, err
		}
		return uint64(i), nil
	case idl.KindFloat:
		f, ok := v.(float64)
		if !ok {
			return nil, badValue("expected number, got %s", jsonKind(v))
		}
		return float32(f), nil
	case idl.KindDouble:
		f, ok := v.(float64)
		if !ok {
			return nil, badValue("expected number, got %s", jsonKind(v))
		}
		return f, nil
	case idl.KindString:
		s, ok := v.(string)
		if !ok {
			return nil, badValue("expected string, got %s", jsonKind(v))
		}
		return s, nil
	case idl.KindEnum:
		// Either the symbolic label or the numeric ordinal.
		if s, ok := v.(string); ok {
			if ord, ok := rt.EnumOrdinal(s); ok {
				return ord, nil
			}
			return nil, badValue("enum %s has no label %q", rt.ScopedName(), s)
		}
		i, err := jsonInt(v, 0, int64(len(rt.Labels))-1)
		if err != nil {
			return nil, badValue("enum %s: %v", rt.ScopedName(), err)
		}
		return uint32(i), nil
	case idl.KindSequence:
		if rt.Elem.Resolve().Kind == idl.KindOctet {
			// encoding/json's []byte convention: base64 in a string.
			s, ok := v.(string)
			if !ok {
				return nil, badValue("expected base64 string for octet sequence, got %s", jsonKind(v))
			}
			b, err := base64.StdEncoding.DecodeString(s)
			if err != nil {
				return nil, badValue("bad base64 octet sequence: %v", err)
			}
			if rt.Bound > 0 && uint32(len(b)) > rt.Bound {
				return nil, badValue("sequence length %d exceeds bound %d", len(b), rt.Bound)
			}
			return b, nil
		}
		xs, ok := v.([]any)
		if !ok {
			return nil, badValue("expected array, got %s", jsonKind(v))
		}
		if rt.Bound > 0 && uint32(len(xs)) > rt.Bound {
			return nil, badValue("sequence length %d exceeds bound %d", len(xs), rt.Bound)
		}
		out := make([]any, len(xs))
		for i, x := range xs {
			c, err := jsonToIDL(rt.Elem, x)
			if err != nil {
				return nil, badValue("element %d: %v", i, err)
			}
			out[i] = c
		}
		return out, nil
	case idl.KindStruct, idl.KindException:
		m, ok := v.(map[string]any)
		if !ok {
			return nil, badValue("expected object for %s, got %s", rt.ScopedName(), jsonKind(v))
		}
		out := make(map[string]any, len(rt.Fields))
		for _, f := range rt.Fields {
			fv, present := m[f.Name]
			if !present {
				return nil, badValue("struct %s missing field %q", rt.ScopedName(), f.Name)
			}
			c, err := jsonToIDL(f.Type, fv)
			if err != nil {
				return nil, badValue("field %s: %v", f.Name, err)
			}
			out[f.Name] = c
		}
		if len(m) != len(rt.Fields) {
			for k := range m {
				known := false
				for _, f := range rt.Fields {
					if f.Name == k {
						known = true
						break
					}
				}
				if !known {
					return nil, badValue("struct %s has no field %q", rt.ScopedName(), k)
				}
			}
		}
		return out, nil
	case idl.KindObject, idl.KindInterface:
		s, ok := v.(string)
		if !ok {
			return nil, badValue("expected stringified IOR, got %s", jsonKind(v))
		}
		ref, err := ior.Parse(s)
		if err != nil {
			return nil, badValue("bad object reference: %v", err)
		}
		return ref, nil
	default:
		return nil, badValue("type %s is not representable in JSON", rt)
	}
}

// jsonInt extracts an integral number within [lo, hi]. JSON numbers
// arrive as float64, so magnitudes beyond 2^53 are not exactly
// representable; the gateway rejects the fractional and out-of-range
// rather than silently truncating. float64(math.MaxInt64) rounds up to
// 2^63, which int64 cannot hold, so 2^63 is rejected whatever hi says.
func jsonInt(v any, lo, hi int64) (int64, error) {
	f, ok := v.(float64)
	if !ok {
		return 0, badValue("expected integer, got %s", jsonKind(v))
	}
	if f != math.Trunc(f) {
		return 0, badValue("expected integer, got fractional %v", f)
	}
	if f < float64(lo) || f > float64(hi) || f >= 1<<63 {
		return 0, badValue("integer %v out of range [%d, %d]", f, lo, hi)
	}
	return int64(f), nil
}

// idlToJSON converts a decoded reply value to a JSON-renderable tree:
// object references become stringified IORs, nested containers are
// walked, everything else marshals natively ([]byte as base64).
func idlToJSON(v any) any {
	switch x := v.(type) {
	case *ior.IOR:
		if x == nil || x.IsNil() {
			return nil
		}
		return x.String()
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = idlToJSON(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = idlToJSON(e)
		}
		return out
	default:
		return v
	}
}

// jsonKind names a decoded JSON value's type for diagnostics.
func jsonKind(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	case json.Number:
		return "number"
	default:
		return fmt.Sprintf("%T", v)
	}
}
