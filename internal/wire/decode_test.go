package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// encodeSecrets is the server's encoder for a secrets response (writeJSON
// and policySnapshot.secretsBody both run the stock json.Encoder), trailing
// newline included.
func encodeSecrets(tb testing.TB, secrets map[string]string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(SecretsResponse{Secrets: secrets}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// plainSecrets is n secrets shaped like the benchmark's: short ASCII names,
// 32 hex digits of value.
func plainSecrets(n int) map[string]string {
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("s%03d", i)] = fmt.Sprintf("%032x", i*2654435761)
	}
	return m
}

// hostileSecrets is the "hostile names and values" case of core's
// TestSecretsBodyByteIdentity: everything the encoder escapes or repairs.
func hostileSecrets() map[string]string {
	return map[string]string{
		`quote"d`:       `say "hi"`,
		`back\slash`:    `C:\path\`,
		"<tag>":         "<script>alert(1)</script>",
		"a&b":           "x&y",
		"line\u2028sep": "para\u2029sep",
		"bad\xffutf8":   "\xc3\x28 \xf0\x9f",
		"ctl\x00\x1f":   "tab\there\nnewline\r",
		"":              "",
	}
}

// encoderCorpus is what the repo's own encoder puts on the wire for the
// fast-pathed message: the TestSecretsBodyByteIdentity population.
func encoderCorpus(tb testing.TB) [][]byte {
	var responses [][]byte
	for _, n := range []int{0, 1, 4, 32, 128} {
		responses = append(responses, encodeSecrets(tb, plainSecrets(n)))
	}
	return append(responses, encodeSecrets(tb, hostileSecrets()))
}

// TestScannerAcceptsEncoderOutput keeps the fast path on the traffic it was
// written for: if an encoder change (or a scanner change) pushed these
// bodies onto the encoding/json fallback, every other test would still
// pass and only the ledger would notice.
func TestScannerAcceptsEncoderOutput(t *testing.T) {
	for _, raw := range encoderCorpus(t) {
		if _, ok := scanSecrets(raw); !ok {
			t.Errorf("scanSecrets declined the encoder's own %q", raw)
		}
	}
	for _, in := range acceptedVariants {
		if _, ok := scanSecrets([]byte(in)); !ok {
			t.Errorf("scanSecrets declined %q", in)
		}
	}
}

// foreignInputs are texts the scanner must leave to encoding/json, valid
// or not: each differs from the canonical form in one respect, or is a
// request, which is never scanned.
var foreignInputs = []string{
	``, ` `, `null`, `[]`, `"secrets"`, `{`, `{"secrets"`, `{"secrets":`, `{"secrets":{`,
	`{"secrets":{"a"`, `{"secrets":{"a":`, `{"secrets":{"a":"b"`, `{"secrets":{"a":"b"}`,
	`{"secrets":{"a":"b",}}`, `{"secrets":{,"a":"b"}}`, `{"secrets":{"a":"b"}}}`,
	`{"secrets":{"a":"b"}}junk`, `{"secrets":{"a":"b"}}{}`, `{}junk`, `{}{}`,
	`{"secrets":null}`, `{"Secrets":{"a":"b"}}`, `{"SECRETS":{"a":"b"}}`, `{"secrets":{"a":"b"},"x":1}`,
	`{"x":1,"secrets":{"a":"b"}}`, `{"secrets":{"a":"b"},"secrets":{"c":"d"}}`,
	`{"secrets":{"a":null}}`, `{"secrets":{"a":1}}`, `{"secrets":{"a":{"b":"c"}}}`, `{"secrets":{"a":["b"]}}`,
	`{"secrets":{"a":"b` + "\n" + `"}}`, `{"secrets":{"a":"\x"}}`, `{"secrets":{"a":"\u12"}}`, `{"secrets":{"a":"b\`,
	`{"secrets":{a:"b"}}`, `{"secrets":{'a':'b'}}`, `{"secrets":["a"]}`, `{"secrets":"a"}`,
	`{}`, ` { } `, `{"names":[]}`, `{"names":["api_token"]}`, `{"names":{"a":"b"}}`,
	"\ufeff{}", `{"secrets":{"a":"b"}}` + "\x00",
}

// TestScannerDeclinesForeignInput pins the other side: none of these may
// be answered by the scanner, whatever encoding/json then makes of them.
func TestScannerDeclinesForeignInput(t *testing.T) {
	for _, in := range foreignInputs {
		if m, ok := scanSecrets([]byte(in)); ok {
			t.Errorf("scanSecrets accepted %q as %v", in, m)
		}
	}
}

// acceptedVariants are non-canonical texts the scanner does take: whitespace
// between tokens, duplicate keys (last wins, as in encoding/json), strings
// that need unquoting.
var acceptedVariants = []string{
	" {\n\t\"secrets\" : { \"a\" : \"b\" , \"c\" : \"d\" } }\r\n",
	`{"secrets":{"a":"1","a":"2"}}`,
	`{"secrets":{"\u0061":"1","a":"2"}}`,
	`{"secrets":{"k":"\ud800","\udc00":"lone surrogates"}}`,
	`{"secrets":{"k":"\"\\\/\b\f\n\r\t\u2028"}}`,
	"{\"secrets\":{\"k\":\"raw \u2028 \x7f \xff\xfe\"}}",
	`{"secrets":{}}`,
}

// checkAgainstEncodingJSON decodes raw into the fast-pathed type through
// Unmarshal and through json.Unmarshal and requires one answer. Where the
// scanner accepts, encoding/json must accept too (Unmarshal would otherwise
// have hidden an error).
func checkAgainstEncodingJSON(t *testing.T, raw []byte) {
	t.Helper()
	var gotResp, wantResp SecretsResponse
	gotErr, wantErr := Unmarshal(raw, &gotResp), json.Unmarshal(raw, &wantResp)
	if _, ok := scanSecrets(raw); ok && wantErr != nil {
		t.Fatalf("scanSecrets accepted %q, encoding/json says %v", raw, wantErr)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotResp, wantResp) {
		t.Fatalf("SecretsResponse from %q:\n got %#v, %v\nwant %#v, %v", raw, gotResp, gotErr, wantResp, wantErr)
	}
}

// FuzzUnmarshalMatchesEncodingJSON is the proof that stands where an
// off-switch would: for arbitrary bytes, Unmarshal and json.Unmarshal give
// the same value and the same error for the fast-pathed type.
//
//	go test ./internal/wire -run '^$' -fuzz FuzzUnmarshalMatchesEncodingJSON -fuzztime 60s
func FuzzUnmarshalMatchesEncodingJSON(f *testing.F) {
	for _, raw := range encoderCorpus(f) {
		f.Add(raw)
		// Truncations of a real body: every prefix boundary class once.
		for _, cut := range []int{1, len(raw) / 2, len(raw) - 2, len(raw) - 1} {
			if cut > 0 && cut < len(raw) {
				f.Add(raw[:cut])
			}
		}
	}
	for _, in := range append(foreignInputs, acceptedVariants...) {
		f.Add([]byte(in))
	}
	f.Fuzz(checkAgainstEncodingJSON)
}

// TestUnmarshalIsEncodingJSONElsewhere covers what the fuzz target does not
// vary: the destination. Every other DTO (the golden files), a destination
// that already holds something, and a nil one behave as json.Unmarshal.
func TestUnmarshalIsEncodingJSONElsewhere(t *testing.T) {
	for name, dto := range goldenDTOs() {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		fresh := reflect.New(reflect.TypeOf(dto).Elem()).Interface()
		if err := Unmarshal(raw, fresh); err != nil || !reflect.DeepEqual(dto, fresh) {
			t.Errorf("%s: got %+v, %v; want %+v", name, fresh, err, dto)
		}
	}

	body := []byte(`{"secrets":{"new":"1"}}`)
	got := SecretsResponse{Secrets: map[string]string{"old": "0"}}
	want := SecretsResponse{Secrets: map[string]string{"old": "0"}}
	if err := Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decode into a held map: got %v, want %v", got, want)
	}

	gotErr := Unmarshal(body, (*SecretsResponse)(nil))
	wantErr := json.Unmarshal(body, (*SecretsResponse)(nil))
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("nil destination: got %v, want %v", gotErr, wantErr)
	}
}

// TestSecretsDecodeAllocBudget pins the client's decode of an n-secret
// body: the map, its keys and its values and nothing that grows faster —
// no token buffer, no reflect.Value per entry. encoding/json needs about
// 3.5 n for the same body.
func TestSecretsDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	for _, n := range []int{4, 32, 128} {
		raw := encodeSecrets(t, plainSecrets(n))
		allocs := testing.AllocsPerRun(100, func() {
			var out SecretsResponse
			if err := Unmarshal(raw, &out); err != nil || len(out.Secrets) != n {
				t.Fatalf("decode: %d secrets, %v", len(out.Secrets), err)
			}
		})
		// Keys and values, plus the map header and its groups (a few
		// arrays, however many entries).
		if budget := float64(2*n + 6); allocs > budget {
			t.Errorf("%d secrets: %.0f allocs, budget %.0f", n, allocs, budget)
		}
	}
}

var decodeSink SecretsResponse

// BenchmarkSecretsDecode is the layer row behind the ledger's fetch gain:
// the response decode alone, encoding/json against Unmarshal, at the three
// sizes of the benchmark's population.
//
//	go test ./internal/wire -run '^$' -bench BenchmarkSecretsDecode -benchmem
func BenchmarkSecretsDecode(b *testing.B) {
	for _, n := range []int{4, 32, 128} {
		raw := encodeSecrets(b, plainSecrets(n))
		for _, dec := range []struct {
			name string
			fn   func([]byte, any) error
		}{{"std", json.Unmarshal}, {"wire", Unmarshal}} {
			b.Run(fmt.Sprintf("%s/secrets=%d", dec.name, n), func(b *testing.B) {
				b.SetBytes(int64(len(raw)))
				b.ReportAllocs()
				for b.Loop() {
					var out SecretsResponse
					if err := dec.fn(raw, &out); err != nil {
						b.Fatal(err)
					}
					decodeSink = out
				}
			})
		}
	}
}
