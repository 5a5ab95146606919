// Recognisers for the four DTOs an admission cycle decodes: PlaceRequest and
// ReleaseRequest on the server, PlaceResponse and Event on the client.
//
// Each reads the plain JSON both ends' own encoders emit — one object, known
// keys in any order and whitespace, printable-ASCII strings without escapes,
// JSON-grammar numbers — with no reflection, and reports false on anything
// else, leaving its destination untouched. The caller then hands the same
// bytes to encoding/json, whose value or error stands: a recogniser never
// decides what malformed or unusual input means, it only declines it.
// FuzzWireDecode holds the other half: whatever a recogniser accepts,
// encoding/json accepts with an equal value.
package wire

import "strconv"

// scanner walks one JSON text left to right.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\r' || s.b[s.i] == '\n') {
		s.i++
	}
}

// token skips whitespace and consumes c if it is next.
func (s *scanner) token(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object consumes {"key":value,...}, calling field with each key and the
// scanner at its value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.token('{') {
		return false
	}
	for first := true; !s.token('}'); first = false {
		if !first && !s.token(',') {
			return false
		}
		key, ok := s.bytes()
		if !ok || !s.token(':') || !field(key) {
			return false
		}
	}
	return true
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// bytes consumes a string of printable ASCII without escapes and returns a
// view of its contents.
func (s *scanner) bytes() ([]byte, bool) {
	if !s.token('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) str(dst *string) bool {
	b, ok := s.bytes()
	if ok {
		*dst = string(b)
	}
	return ok
}

// name is str for the event type and health names, which repeat on every
// frame: the known ones cost no allocation.
func (s *scanner) name(dst *string) bool {
	b, ok := s.bytes()
	if ok {
		*dst = intern(b)
	}
	return ok
}

// intern returns string(b), without allocating when b is an event type or a
// health state.
func intern(b []byte) string {
	switch string(b) {
	case "place":
		return "place"
	case "release":
		return "release"
	case "move":
		return "move"
	case "health":
		return "health"
	case "failover":
		return "failover"
	case "rebalance":
		return "rebalance"
	case "drain":
		return "drain"
	case "revive":
		return "revive"
	case "resume":
		return "resume"
	case "dropped":
		return "dropped"
	case "healthy":
		return "healthy"
	case "suspect":
		return "suspect"
	case "dead":
		return "dead"
	}
	return string(b)
}

// digits consumes [0-9]* and returns how many.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// number consumes one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text;
// integer says it had neither fraction nor exponent.
func (s *scanner) number() (text []byte, integer, ok bool) {
	s.space()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if n := s.digits(); n == 0 || n > 1 && s.b[s.i-n] == '0' {
		return nil, false, false
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		integer = false
		if s.digits() == 0 {
			return nil, false, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		integer = false
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return nil, false, false
		}
	}
	return s.b[start:s.i], integer, true
}

// integer consumes an integer of at most 18 digits, which keeps it inside
// int64 without an overflow check; longer ones are encoding/json's to judge.
func (s *scanner) integer() (neg bool, mag uint64, ok bool) {
	text, integer, ok := s.number()
	if !ok || !integer {
		return false, 0, false
	}
	if neg = text[0] == '-'; neg {
		text = text[1:]
	}
	if len(text) > 18 {
		return false, 0, false
	}
	for _, c := range text {
		mag = mag*10 + uint64(c-'0')
	}
	return neg, mag, true
}

// uint declines a sign: "-0" is no uint64 to encoding/json.
func (s *scanner) uint(dst *uint64) bool {
	neg, mag, ok := s.integer()
	if ok = ok && !neg; ok {
		*dst = mag
	}
	return ok
}

func (s *scanner) int(dst *int) bool {
	neg, mag, ok := s.integer()
	v := int64(mag)
	if neg {
		v = -v
	}
	if ok = ok && int64(int(v)) == v; ok { // a 32-bit int may not hold it
		*dst = int(v)
	}
	return ok
}

func (s *scanner) float(dst *float64) bool {
	text, _, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(text), 64)
	*dst = v
	return err == nil // out of range, as encoding/json has it
}

// ints consumes an array of at most 64 integers (a NodeSet holds no more, and
// the count below is taken before the elements are checked); an empty one is
// empty, not nil, as encoding/json decodes it.
func (s *scanner) ints(dst *[]int) bool {
	if !s.token('[') {
		return false
	}
	if s.token(']') {
		*dst = []int{}
		return true
	}
	n := 1
	for _, c := range s.b[s.i:] {
		if c == ']' {
			break
		}
		if c == ',' {
			n++
		}
	}
	if n > 64 {
		return false
	}
	out := make([]int, n)
	for i := range out {
		if i > 0 && !s.token(',') || !s.int(&out[i]) {
			return false
		}
	}
	*dst = out
	return s.token(']')
}

func decodePlaceRequest(b []byte, dst *PlaceRequest) bool {
	s, v := scanner{b: b}, *dst
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "workload":
			return s.str(&v.Workload)
		case "vcpus":
			return s.int(&v.VCPUs)
		}
		return false
	}) && s.end()
	if ok {
		*dst = v
	}
	return ok
}

func decodeReleaseRequest(b []byte, dst *ReleaseRequest) bool {
	s, v := scanner{b: b}, *dst
	ok := s.object(func(key []byte) bool {
		return string(key) == "id" && s.int(&v.ID)
	}) && s.end()
	if ok {
		*dst = v
	}
	return ok
}

// DecodePlaceResponse recognises a Place response as AppendPlace spells it.
func DecodePlaceResponse(b []byte, dst *PlaceResponse) bool {
	s, v := scanner{b: b}, *dst
	a := &v.Assignment
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return s.int(&v.ID)
		case "backend":
			return s.str(&v.Backend)
		case "assignment":
			return s.object(func(key []byte) bool {
				switch string(key) {
				case "id":
					return s.int(&a.ID)
				case "workload":
					return s.str(&a.Workload)
				case "vcpus":
					return s.int(&a.VCPUs)
				case "class":
					return s.int(&a.Class)
				case "nodes":
					return s.ints(&a.Nodes)
				case "base_perf":
					return s.float(&a.BasePerf)
				case "probe_perf":
					return s.float(&a.ProbePerf)
				case "predicted_perf":
					return s.float(&a.PredictedPerf)
				}
				return false
			})
		}
		return false
	}) && s.end()
	if ok {
		*dst = v
	}
	return ok
}

// DecodeEvent recognises an event frame's data as AppendEvent and
// AppendDroppedSSE spell it.
func DecodeEvent(b []byte, dst *Event) bool {
	s, v := scanner{b: b}, *dst
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "seq":
			return s.uint(&v.Seq)
		case "type":
			return s.name(&v.Type)
		case "id":
			return s.int(&v.ID)
		case "backend":
			return s.str(&v.Backend)
		case "dest":
			return s.str(&v.Dest)
		case "workload":
			return s.str(&v.Workload)
		case "vcpus":
			return s.int(&v.VCPUs)
		case "from_health":
			return s.name(&v.FromHealth)
		case "to_health":
			return s.name(&v.ToHealth)
		case "moves":
			return s.int(&v.Moves)
		case "intra_moves":
			return s.int(&v.IntraMoves)
		case "examined":
			return s.int(&v.Examined)
		case "stranded":
			return s.int(&v.Stranded)
		case "fenced":
			return s.int(&v.Fenced)
		case "seconds":
			return s.float(&v.Seconds)
		case "dropped":
			return s.uint(&v.Dropped)
		}
		return false
	}) && s.end()
	if ok {
		*dst = v
	}
	return ok
}
