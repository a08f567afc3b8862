package engine

import (
	"strings"
	"testing"
)

// TestDecodeAdminPeerRequest pins the strict-decode contract: valid bodies
// round-trip, and every rejection class — empty, schemeless garbage,
// unknown fields (the retired "transport" included), trailing data — is an
// error, not a zero-value request that mutates topology.
func TestDecodeAdminPeerRequest(t *testing.T) {
	req, err := DecodeAdminPeerRequest(strings.NewReader(`{"addr":"h1:8093"}`))
	if err != nil || req.Addr != "h1:8093" {
		t.Fatalf("plain addr: %+v, %v", req, err)
	}
	req, err = DecodeAdminPeerRequest(strings.NewReader(`{"addr":"http://h1:8093"}`))
	if err != nil || req.Addr != "http://h1:8093" {
		t.Fatalf("full addr: %+v, %v", req, err)
	}
	for name, body := range map[string]string{
		"empty object":    `{}`,
		"blank addr":      `{"addr":"  "}`,
		"bad scheme":      `{"addr":"ftp://h1:8093"}`,
		"no host":         `{"addr":"http://"}`,
		"transport":       `{"addr":"h1:8093","transport":"socket"}`,
		"unknown field":   `{"addr":"h1:8093","evil":true}`,
		"trailing data":   `{"addr":"h1:8093"}{"addr":"h2:8093"}`,
		"not json":        `addr=h1`,
		"wrong addr type": `{"addr":42}`,
		"candidate body":  `{"candidate":"int8","fraction":0.05,"floor":0.99,"hold_window":256,"min_samples":64}`,
	} {
		if _, err := DecodeAdminPeerRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted: %s", name, body)
		}
	}
}

// FuzzAdminRequest drives the admin decoder with arbitrary bytes. It parses
// the authenticated-but-network-reachable control-plane body, so the
// contract is: never panic, never allocate past the body cap, and anything
// that does decode satisfies the validated invariants (a non-blank,
// parseable peer address) — a fuzzer-found violation here is a topology
// mutation a hostile admin payload could have caused. The seeds with a
// "candidate" field carry no addr and an unknown field: inputs the decoder
// must reject.
func FuzzAdminRequest(f *testing.F) {
	f.Add([]byte(`{"addr":"h1:8093"}`))
	f.Add([]byte(`{"addr":"https://h1:8093","transport":"socket"}`))
	f.Add([]byte(`{"candidate":"int8","fraction":0.05,"floor":0.99,"hold_window":256,"min_samples":64}`))
	f.Add([]byte(`{"addr":42}`))
	f.Add([]byte(`{"candidate":"x","hold_window":-1}`))
	f.Add([]byte(`{"addr":"h1:8093"}garbage`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeAdminPeerRequest(strings.NewReader(string(data))); err == nil {
			if strings.TrimSpace(req.Addr) == "" {
				t.Fatalf("decoded peer request with blank addr: %+v", req)
			}
		}
	})
}
