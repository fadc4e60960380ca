package policy

import (
	"testing"

	"palaemon/internal/sgx"
)

func compileFixture() *Policy {
	return &Policy{
		Name: "c",
		Services: []Service{
			{
				Name:        "svc",
				Command:     "serve --token $$token --unknown $$nope",
				MREnclaves:  []sgx.Measurement{{1}},
				Environment: map[string]string{"TOKEN": "$$token", "PLAIN": "x"},
				InjectionFiles: []InjectionFile{
					{Path: "/etc/conf", Template: "token=$$token\n"},
				},
				StrictMode: true,
			},
			{Name: "bare", MREnclaves: []sgx.Measurement{{2}}},
		},
		Secrets: []Secret{{Name: "token", Type: SecretExplicit, Value: "T"}},
	}
}

func TestCompileSubstitutesOncePerService(t *testing.T) {
	c := Compile(compileFixture())
	cs, ok := c.Service("svc")
	if !ok {
		t.Fatal("svc missing")
	}
	if cs.Command != "serve --token T --unknown $$nope" {
		t.Fatalf("command %q", cs.Command)
	}
	if !cs.StrictMode {
		t.Fatal("strict flag lost")
	}
	env := cs.Environment()
	if env["TOKEN"] != "T" || env["PLAIN"] != "x" {
		t.Fatalf("environment %v", env)
	}
	files := cs.InjectionFiles()
	if files["/etc/conf"] != "token=T\n" {
		t.Fatalf("injection files %v", files)
	}
	if v, ok := c.Secret("token"); !ok || v != "T" {
		t.Fatalf("secret lookup %q %v", v, ok)
	}
	if _, ok := c.Service("missing"); ok {
		t.Fatal("phantom service")
	}
}

func TestCompileAccessorsAreSnapshotSafe(t *testing.T) {
	c := Compile(compileFixture())
	cs, _ := c.Service("svc")

	// Mutating any returned map must not leak back into the snapshot.
	c.Secrets()["token"] = "tampered"
	cs.Environment()["TOKEN"] = "tampered"
	cs.InjectionFiles()["/etc/conf"] = "tampered"

	if c.Secrets()["token"] != "T" {
		t.Fatal("secret map aliased")
	}
	if cs.Environment()["TOKEN"] != "T" {
		t.Fatal("environment map aliased")
	}
	if cs.InjectionFiles()["/etc/conf"] != "token=T\n" {
		t.Fatal("injection map aliased")
	}
}

func TestCompileEmptyShapes(t *testing.T) {
	c := Compile(compileFixture())
	bare, ok := c.Service("bare")
	if !ok {
		t.Fatal("bare missing")
	}
	if env := bare.Environment(); env == nil || len(env) != 0 {
		// Attestation has always released a non-nil (possibly empty)
		// environment; the compiled view must keep that shape.
		t.Fatalf("environment %v", env)
	}
	if files := bare.InjectionFiles(); files != nil {
		t.Fatalf("injection files %v, want nil", files)
	}
}

// TestCompiledSecretLookup checks the sorted-pair store against the map it
// replaced: whatever order the policy lists its secrets in, Secrets equals
// SecretValues, Secret finds every name and nothing else, and substitution
// saw the same values.
func TestCompiledSecretLookup(t *testing.T) {
	cases := []struct {
		name    string
		secrets []Secret
	}{
		{"empty", nil},
		{"one", []Secret{{Name: "a", Value: "1"}}},
		{"sorted", []Secret{{Name: "a", Value: "1"}, {Name: "b", Value: "2"}, {Name: "c", Value: "3"}}},
		{"unsorted", []Secret{{Name: "zeta", Value: "26"}, {Name: "Alpha", Value: "0"}, {Name: "mu", Value: "12"}, {Name: "alpha", Value: "1"}, {Name: "", Value: "empty name"}}},
		{"prefixes", []Secret{{Name: "ab", Value: "2"}, {Name: "abc", Value: "3"}, {Name: "a", Value: "1"}}},
		// Validate refuses this one; Compile keeps SecretValues' answer for it.
		{"duplicate name, last wins", []Secret{{Name: "k", Value: "old"}, {Name: "a", Value: "1"}, {Name: "k", Value: "new"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Policy{
				Name:     "p",
				Services: []Service{{Name: "svc", Command: "run $$a $$k $$zeta", MREnclaves: []sgx.Measurement{{1}}}},
				Secrets:  tc.secrets,
			}
			want := p.SecretValues()
			c := Compile(p)

			got := c.Secrets()
			if got == nil || len(got) != len(want) {
				t.Fatalf("Secrets() = %v, want %v", got, want)
			}
			for name, v := range want {
				if got[name] != v {
					t.Errorf("Secrets()[%q] = %q, want %q", name, got[name], v)
				}
				if one, ok := c.Secret(name); !ok || one != v {
					t.Errorf("Secret(%q) = %q, %v, want %q", name, one, ok, v)
				}
			}
			for _, absent := range []string{"missing", "aa", "zz", "\x00"} {
				if _, listed := want[absent]; listed {
					continue
				}
				if v, ok := c.Secret(absent); ok {
					t.Errorf("Secret(%q) = %q, want absent", absent, v)
				}
			}
			cs, _ := c.Service("svc")
			if wantCmd := Substitute("run $$a $$k $$zeta", want); cs.Command != wantCmd {
				t.Errorf("command %q, want %q", cs.Command, wantCmd)
			}
		})
	}
}
