package gateway

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"corbalc/internal/idl"
)

// TestJSONLongLongRange pins the 64-bit integral edges of the JSON
// translation. JSON numbers arrive as float64, where math.MaxInt64
// rounds up to 2^63: that value must be refused (HTTP 400), not wrapped
// to math.MinInt64 on its way to the servant. long long accepts
// [-2^63, 2^63) and unsigned long long [0, 2^63).
func TestJSONLongLongRange(t *testing.T) {
	below := math.Nextafter(1<<63, 0) // largest float64 under 2^63
	for _, tc := range []struct {
		kind idl.Kind
		json string
		want any // nil: rejected
	}{
		{idl.KindLongLong, "9223372036854775807", nil},
		{idl.KindLongLong, "9223372036854775808", nil},
		{idl.KindLongLong, "-9223372036854775808", int64(math.MinInt64)},
		{idl.KindLongLong, "9223372036854774784", int64(below)},
		{idl.KindULongLong, "0", uint64(0)},
		{idl.KindULongLong, "-1", nil},
		{idl.KindULongLong, "9223372036854774784", uint64(below)},
		{idl.KindULongLong, "9223372036854775807", nil},
		{idl.KindULongLong, "9223372036854775808", nil},
	} {
		var v any
		if err := json.Unmarshal([]byte(tc.json), &v); err != nil {
			t.Fatal(err)
		}
		got, err := jsonToIDL(&idl.Type{Kind: tc.kind}, v)
		if tc.want == nil {
			var te *translateError
			if !errors.As(err, &te) {
				t.Errorf("kind %v %s: got %v, %v; want a 400 translation error", tc.kind, tc.json, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("kind %v %s: got %v (%T), %v; want %v", tc.kind, tc.json, got, got, err, tc.want)
		}
	}
}
