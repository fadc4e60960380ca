package wire

import (
	"bytes"
	"encoding/json"
)

// Unmarshal decodes one wire message into v and is the one way core decodes
// a DTO. For every type, and for every input, the outcome is exactly
// json.Unmarshal(raw, v): same value, same error.
//
// The secrets response gets there faster. It is flat — one known field
// holding a string map — and encoding/json pays for it twice (a validating
// pre-scan, then a reflective walk that sets the map entry by entry through
// reflect). A zeroed *SecretsResponse is first offered to a hand-written
// scanner that reads the JSON this package's encoder emits in one pass.
// The scanner declines whatever it does not recognise — another field, a
// field name in another case, null, a non-string value, a control
// character, bytes after the value, a destination that is nil or already
// holds something — and a declined input goes to json.Unmarshal untouched,
// so errors are encoding/json's own. A string with an escape or a non-ASCII
// byte is handed, alone, to encoding/json: unquoting stays its job.
// FuzzUnmarshalMatchesEncodingJSON holds the two to the same answer.
//
// Requests are not scanned: the one the ledger sends is the two-byte {},
// which json.Unmarshal decodes in a fraction of a microsecond, and the
// server's input is the untrusted side.
func Unmarshal(raw []byte, v any) error {
	if dst, ok := v.(*SecretsResponse); ok && dst != nil && dst.Secrets == nil {
		if m, ok := scanSecrets(raw); ok {
			dst.Secrets = m
			return nil
		}
	}
	return json.Unmarshal(raw, v)
}

// scanSecrets reads {"secrets":{"k":"v",...}} and nothing else.
func scanSecrets(raw []byte) (map[string]string, bool) {
	s := scanner{raw: raw}
	if !s.eat('{') || !s.key("secrets") || !s.eat('{') {
		return nil, false
	}
	// Four quotes to an entry, less the field name's two: a hint only, and
	// never more than a valid body of this length would make encoding/json
	// build.
	m := make(map[string]string, (bytes.Count(raw, []byte{'"'})-2)/4)
	for more := !s.eat('}'); more; {
		k, ok := s.str()
		if !ok || !s.eat(':') {
			return nil, false
		}
		v, ok := s.str()
		if !ok {
			return nil, false
		}
		m[k] = v
		if more = !s.eat('}'); more && !s.eat(',') {
			return nil, false
		}
	}
	if !s.eat('}') || !s.end() {
		return nil, false
	}
	return m, true
}

// scanner is a cursor over one JSON text. Its methods consume a token and
// report whether it was there; on false the caller gives the input up, so
// no method needs to say what it found instead.
type scanner struct {
	raw []byte
	i   int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.raw) {
		switch s.raw[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.raw) && s.raw[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes "name": with name spelt exactly; encoding/json also matches
// field names case-insensitively, and those spellings are left to it.
func (s *scanner) key(name string) bool {
	s.space()
	rest := s.raw[s.i:]
	if len(rest) < len(name)+2 || rest[0] != '"' || string(rest[1:1+len(name)]) != name || rest[1+len(name)] != '"' {
		return false
	}
	s.i += len(name) + 2
	return s.eat(':')
}

// str consumes one string. Plain printable ASCII is copied out as it
// stands; anything encoding/json would transform (an escape, UTF-8 it may
// have to repair) is unquoted by encoding/json itself, from the quotes
// inward, and what it refuses is refused here.
func (s *scanner) str() (string, bool) {
	if !s.eat('"') {
		return "", false
	}
	start, plain := s.i, true
	for s.i < len(s.raw) {
		switch c := s.raw[s.i]; {
		case c == '"':
			lit := s.raw[start:s.i]
			s.i++
			if plain {
				return string(lit), true
			}
			var out string
			err := json.Unmarshal(s.raw[start-1:s.i], &out)
			return out, err == nil
		case c == '\\':
			plain = false
			s.i += 2 // whatever is escaped, a quote included, is not the end
		case c < ' ':
			return "", false
		default:
			plain = plain && c < 0x80
			s.i++
		}
	}
	return "", false
}

// end reports that only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.raw)
}
