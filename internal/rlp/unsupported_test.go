package rlp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// Shapes that are supported in one direction only, or only for some
// values. The unsupported part fails exactly when a value reaches it,
// with the error text the reflection walker gives, and does not stop
// the rest of the type from working.

type strName string

func (s strName) String() string { return string(s) }

// stringerField has a non-empty interface field: it encodes through
// the dynamic value, and its decode fails at that field.
type stringerField struct {
	A uint64
	S fmt.Stringer
}

// decodeOnly is decodable only through its custom DecodeRLP: the map
// kind itself has no RLP form, so encoding fails.
type decodeOnly map[string]uint64

func (m *decodeOnly) DecodeRLP(s *Stream) error {
	n, err := s.Uint64()
	if err != nil {
		return err
	}
	*m = decodeOnly{"n": n}
	return nil
}

// chanTail has an undecodable tail element type.
type chanTail struct {
	A    uint64
	Rest []chan int `rlp:"tail"`
}

func TestPartiallySupportedShapesEncode(t *testing.T) {
	for _, tt := range []struct {
		val  any
		want string // hex output, or the error text
	}{
		{nil, "rlp: cannot encode nil interface value"},
		{(*chan int)(nil), "80"},
		{new(chan int), "rlp: type chan int is not RLP-serializable"},
		{[]chan int{}, "c0"},
		{&stringerField{A: 1, S: strName("x")}, "c20178"},
		{&stringerField{A: 1}, "rlp: cannot encode nil interface value"},
		{decodeOnly{"n": 1}, "rlp: type rlp.decodeOnly is not RLP-serializable"},
		{&chanTail{A: 5}, "c105"},
	} {
		enc, err := EncodeToBytes(tt.val)
		got := fmt.Sprintf("%x", enc)
		if err != nil {
			got = err.Error()
		}
		if got != tt.want {
			t.Errorf("EncodeToBytes(%#v) = %s, want %s", tt.val, got, tt.want)
		}
	}
}

func TestPartiallySupportedShapesDecode(t *testing.T) {
	const chanErr = "rlp: type chan int is not RLP-deserializable"
	const ifaceErr = "rlp: field rlp.stringerField.S: rlp: cannot decode into non-empty interface fmt.Stringer"
	decoders := map[string]func([]byte, any) error{
		"DecodeBytes": DecodeBytes,
		"Stream.Decode": func(in []byte, v any) error {
			return NewStream(bytes.NewReader(in), uint64(len(in))).Decode(v)
		},
	}
	for _, tt := range []struct {
		input string
		ptr   any // decode target
		want  any // the value *ptr holds, or the error text
	}{
		{"80", new(*chan int), (*chan int)(nil)},
		{"01", new(*chan int), chanErr},
		{"c0", new([]chan int), chanErr},
		{"80", new([]chan int), "rlp: rlp: expected list for []chan int"},
		{"c0", new([0]chan int), [0]chan int{}},
		{"c0", new([1]chan int), chanErr},
		{"c105", new(chanTail), chanErr},
		{"c20178", new(stringerField), ifaceErr},
		{"c101", new(stringerField), ifaceErr},
		{"820400", new(decodeOnly), decodeOnly{"n": 1024}},
		{"c0", new(decodeOnly), "rlp: expected string or byte"},
	} {
		for via, decode := range decoders {
			reflect.ValueOf(tt.ptr).Elem().SetZero()
			var got any
			if err := decode(mustHex(tt.input), tt.ptr); err != nil {
				got = err.Error()
			} else {
				got = reflect.ValueOf(tt.ptr).Elem().Interface()
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("%s of %s into %T: got %#v, want %#v", via, tt.input, tt.ptr, got, tt.want)
			}
		}
	}
}
