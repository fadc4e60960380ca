// Package policy implements PALÆMON security policies (§III-A).
//
// A policy defines which applications (identified by MRENCLAVE and file
// system tags) may access which secrets on which platforms, how secrets are
// delivered (arguments, environment, file injection), a policy board whose
// quorum must approve any CRUD access (§III-C), and import/export
// relationships with other policies used for secure updates (§III-E).
package policy

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"palaemon/internal/fspf"
	"palaemon/internal/sgx"
)

// SecretType enumerates how a secret value comes to exist.
type SecretType string

// Secret kinds.
const (
	// SecretExplicit is a value supplied verbatim by the policy author.
	SecretExplicit SecretType = "explicit"
	// SecretRandom is generated by PALÆMON at policy creation (the paper's
	// "randomly chosen by PALÆMON" secrets).
	SecretRandom SecretType = "random"
	// SecretImported is pulled from another policy's exports.
	SecretImported SecretType = "imported"
)

// Secret declares one named secret.
type Secret struct {
	// Name is the variable name referenced as $$NAME in injection files,
	// arguments and environment values.
	Name string `json:"name"`
	// Type selects how the value originates.
	Type SecretType `json:"type"`
	// Value holds the explicit value, or the generated value once the
	// policy is stored.
	Value string `json:"value,omitempty"`
	// SizeBytes is the length of a random secret (default 32).
	SizeBytes int `json:"size_bytes,omitempty"`
	// ImportFrom names "policy:secret" for imported secrets.
	ImportFrom string `json:"import_from,omitempty"`
	// Export makes this secret visible to policies importing from us.
	Export bool `json:"export,omitempty"`
}

// InjectionFile maps a file path to template content whose $$NAME variables
// are replaced with secret values inside the TEE (§IV-A).
type InjectionFile struct {
	// Path is the in-volume path the application reads.
	Path string `json:"path"`
	// Template is the file content with $$NAME placeholders.
	Template string `json:"template"`
}

// Service describes one application under the policy.
type Service struct {
	// Name identifies the service within the policy.
	Name string `json:"name"`
	// ImageName references an image section (optional).
	ImageName string `json:"image_name,omitempty"`
	// Command is the command line, possibly containing $$NAME variables.
	Command string `json:"command,omitempty"`
	// MREnclaves lists the permitted measurements; several entries
	// facilitate software updates (§III-A).
	MREnclaves []sgx.Measurement `json:"mrenclaves"`
	// Platforms restricts execution to these platform IDs; empty = any.
	Platforms []sgx.PlatformID `json:"platforms,omitempty"`
	// Environment is delivered after attestation; values may use $$NAME.
	Environment map[string]string `json:"environment,omitempty"`
	// FSPFKey is the file-system shield key (hex); generated when empty.
	FSPFKey string `json:"fspf_key,omitempty"`
	// FSPFTags lists the permitted file-system tags; several entries
	// facilitate updates, and PALÆMON replaces the active one as the
	// runtime pushes new expected tags.
	FSPFTags []fspf.Tag `json:"fspf_tags,omitempty"`
	// InjectionFiles are served to the runtime with secrets substituted.
	InjectionFiles []InjectionFile `json:"injection_files,omitempty"`
	// StrictMode refuses restarts unless the previous execution pushed its
	// final tag on exit (§III-D).
	StrictMode bool `json:"strict_mode,omitempty"`
}

// BoardMember is one stakeholder on the policy board.
type BoardMember struct {
	// Name labels the member.
	Name string `json:"name"`
	// PublicKey is the member's Ed25519 approval key.
	PublicKey []byte `json:"public_key"`
	// URL locates the member's approval service.
	URL string `json:"url"`
	// Veto lets the member unilaterally reject any change (§III-C).
	Veto bool `json:"veto,omitempty"`
}

// Board defines the approval quorum for policy CRUD.
type Board struct {
	// Members are the stakeholders.
	Members []BoardMember `json:"members"`
	// Threshold is the number of approvals required (typically f+1; the
	// practical convention is all members, §II-A).
	Threshold int `json:"threshold"`
}

// Empty reports a policy with no board (single-client control only).
func (b Board) Empty() bool { return len(b.Members) == 0 }

// Export is a value made visible to importing policies (§III-E): a permitted
// MRE+tag combination or a named secret.
type Export struct {
	// MREnclaves and FSPFTags are the permitted combinations exported by an
	// image policy.
	MREnclaves []sgx.Measurement `json:"mrenclaves,omitempty"`
	FSPFTags   []fspf.Tag        `json:"fspf_tags,omitempty"`
	// Secrets lists exported secret names.
	Secrets []string `json:"secrets,omitempty"`
}

// Import declares consumption of another policy's exports.
type Import struct {
	// Policy names the exporting policy.
	Policy string `json:"policy"`
	// Intersect restricts this policy's permitted MRE+tag combinations to
	// those also exported by the imported policy (§III-E's intersection).
	Intersect bool `json:"intersect,omitempty"`
}

// Policy is one complete security policy.
type Policy struct {
	// Name is the globally unique policy name.
	Name string `json:"name"`
	// Services are the applications governed by the policy.
	Services []Service `json:"services"`
	// Secrets are the policy's named secrets.
	Secrets []Secret `json:"secrets,omitempty"`
	// Board is the approval quorum controlling CRUD.
	Board Board `json:"board"`
	// Imports declare dependencies on other policies.
	Imports []Import `json:"imports,omitempty"`
	// Exports declare what other policies may consume.
	Exports Export `json:"exports,omitempty"`
	// CreatorCertFingerprint pins the client certificate that created the
	// policy; all further access requires the same certificate (§IV-E).
	CreatorCertFingerprint [32]byte `json:"creator_cert_fingerprint"`
	// Revision increments on every update.
	Revision uint64 `json:"revision"`
	// CreateID is a random identifier the instance mints at creation and
	// carries across updates; optimistic revision rechecks compare it to
	// distinguish a policy from a same-name recreation, whose Revision
	// restarts at 1 and whose creator fingerprint may match.
	CreateID uint64 `json:"create_id,omitempty"`
}

// Validation errors.
var (
	ErrNoName        = errors.New("policy: missing name")
	ErrBadName       = errors.New("policy: invalid name")
	ErrNoServices    = errors.New("policy: policy defines no services")
	ErrNoMRE         = errors.New("policy: service permits no MRENCLAVE")
	ErrBadThreshold  = errors.New("policy: board threshold out of range")
	ErrDupSecret     = errors.New("policy: duplicate secret name")
	ErrDupService    = errors.New("policy: duplicate service name")
	ErrBadImport     = errors.New("policy: malformed import reference")
	ErrUnknownSecret = errors.New("policy: reference to undefined secret")
)

// Validate checks structural invariants.
func (p *Policy) Validate() error {
	if strings.TrimSpace(p.Name) == "" {
		return ErrNoName
	}
	if strings.ContainsRune(p.Name, 0) {
		// NUL is the instance's tag-record key separator; a name carrying
		// it could alias another policy's records.
		return fmt.Errorf("%w: NUL in policy name", ErrBadName)
	}
	if len(p.Services) == 0 {
		return ErrNoServices
	}
	svcNames := make(map[string]bool, len(p.Services))
	for _, s := range p.Services {
		if strings.ContainsRune(s.Name, 0) {
			return fmt.Errorf("%w: NUL in service name %q", ErrBadName, s.Name)
		}
		if svcNames[s.Name] {
			return fmt.Errorf("%w: %s", ErrDupService, s.Name)
		}
		svcNames[s.Name] = true
		if len(s.MREnclaves) == 0 {
			return fmt.Errorf("%w: service %s", ErrNoMRE, s.Name)
		}
	}
	names := make(map[string]bool, len(p.Secrets))
	for _, sec := range p.Secrets {
		if names[sec.Name] {
			return fmt.Errorf("%w: %s", ErrDupSecret, sec.Name)
		}
		names[sec.Name] = true
		if sec.Type == SecretImported {
			parts := strings.SplitN(sec.ImportFrom, ":", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				return fmt.Errorf("%w: secret %s import %q", ErrBadImport, sec.Name, sec.ImportFrom)
			}
		}
	}
	for _, name := range p.Exports.Secrets {
		if !names[name] {
			return fmt.Errorf("%w: export %s", ErrUnknownSecret, name)
		}
	}
	if !p.Board.Empty() {
		if p.Board.Threshold < 1 || p.Board.Threshold > len(p.Board.Members) {
			return fmt.Errorf("%w: threshold %d with %d members",
				ErrBadThreshold, p.Board.Threshold, len(p.Board.Members))
		}
	}
	return nil
}

// MaterializeSecrets generates values for random secrets that do not have
// one yet. Called by the TMS at policy creation so values never exist
// outside the enclave.
func (p *Policy) MaterializeSecrets() error {
	for i := range p.Secrets {
		sec := &p.Secrets[i]
		if sec.Type != SecretRandom || sec.Value != "" {
			continue
		}
		n := sec.SizeBytes
		if n <= 0 {
			n = 32
		}
		buf := make([]byte, n)
		if _, err := rand.Read(buf); err != nil {
			return fmt.Errorf("policy: generate secret %s: %w", sec.Name, err)
		}
		sec.Value = hex.EncodeToString(buf)
	}
	return nil
}

// SecretValues returns the name→value map for substitution.
func (p *Policy) SecretValues() map[string]string {
	out := make(map[string]string, len(p.Secrets))
	for _, s := range p.Secrets {
		out[s.Name] = s.Value
	}
	return out
}

// FindService returns the named service.
func (p *Policy) FindService(name string) (*Service, bool) {
	for i := range p.Services {
		if p.Services[i].Name == name {
			return &p.Services[i], true
		}
	}
	return nil, false
}

// Substitute replaces $$NAME variables in s with secret values. Unknown
// variables are left untouched so configuration fragments that merely look
// like variables survive.
func Substitute(s string, secrets map[string]string) string {
	if !strings.Contains(s, "$$") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if i+1 < len(s) && s[i] == '$' && s[i+1] == '$' {
			j := i + 2
			for j < len(s) && isVarChar(s[j]) {
				j++
			}
			name := s[i+2 : j]
			if v, ok := secrets[name]; ok && name != "" {
				b.WriteString(v)
				i = j
				continue
			}
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

func isVarChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// PermittedMRE reports whether the service allows the measurement.
func (s *Service) PermittedMRE(m sgx.Measurement) bool {
	for _, mre := range s.MREnclaves {
		if mre == m {
			return true
		}
	}
	return false
}

// PermittedPlatform reports whether the service allows the platform (an
// empty list permits any platform, §III-A).
func (s *Service) PermittedPlatform(id sgx.PlatformID) bool {
	if len(s.Platforms) == 0 {
		return true
	}
	for _, p := range s.Platforms {
		if p == id {
			return true
		}
	}
	return false
}

// PermittedTag reports whether the service allows the file-system tag. An
// empty tag list means the volume is fresh (no expectation yet).
func (s *Service) PermittedTag(t fspf.Tag) bool {
	if len(s.FSPFTags) == 0 {
		return t.IsZero()
	}
	for _, tag := range s.FSPFTags {
		if tag == t {
			return true
		}
	}
	return false
}

// IntersectMREs returns the measurements permitted by both lists, preserving
// the order of a. This implements §III-E: an application only runs with
// MRE+tag combinations permitted by both the image policy and its own.
func IntersectMREs(a, b []sgx.Measurement) []sgx.Measurement {
	set := make(map[sgx.Measurement]bool, len(b))
	for _, m := range b {
		set[m] = true
	}
	var out []sgx.Measurement
	for _, m := range a {
		if set[m] {
			out = append(out, m)
		}
	}
	return out
}

// IntersectTags is the tag analogue of IntersectMREs.
func IntersectTags(a, b []fspf.Tag) []fspf.Tag {
	set := make(map[fspf.Tag]bool, len(b))
	for _, t := range b {
		set[t] = true
	}
	var out []fspf.Tag
	for _, t := range a {
		if set[t] {
			out = append(out, t)
		}
	}
	return out
}

// ApplyImports intersects the policy's permitted combinations with every
// intersecting import's exports, resolving the supplied exporter policies.
// If an image provider withdraws a combination (e.g. after discovering a
// vulnerability), the intersection disallows it here automatically.
func (p *Policy) ApplyImports(exporters map[string]*Policy) error {
	for _, imp := range p.Imports {
		exp, ok := exporters[imp.Policy]
		if !ok {
			return fmt.Errorf("policy: import of unknown policy %q", imp.Policy)
		}
		if !imp.Intersect {
			continue
		}
		for i := range p.Services {
			svc := &p.Services[i]
			if len(exp.Exports.MREnclaves) > 0 {
				svc.MREnclaves = IntersectMREs(svc.MREnclaves, exp.Exports.MREnclaves)
			}
			if len(exp.Exports.FSPFTags) > 0 {
				svc.FSPFTags = IntersectTags(svc.FSPFTags, exp.Exports.FSPFTags)
			}
		}
	}
	return nil
}

// ResolveImportedSecrets copies exported secret values from exporter
// policies into this policy's imported secrets.
func (p *Policy) ResolveImportedSecrets(exporters map[string]*Policy) error {
	for i := range p.Secrets {
		sec := &p.Secrets[i]
		if sec.Type != SecretImported {
			continue
		}
		parts := strings.SplitN(sec.ImportFrom, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("%w: %q", ErrBadImport, sec.ImportFrom)
		}
		exp, ok := exporters[parts[0]]
		if !ok {
			return fmt.Errorf("policy: import from unknown policy %q", parts[0])
		}
		exported := false
		for _, name := range exp.Exports.Secrets {
			if name == parts[1] {
				exported = true
				break
			}
		}
		if !exported {
			return fmt.Errorf("policy: %q does not export secret %q", parts[0], parts[1])
		}
		vals := exp.SecretValues()
		v, ok := vals[parts[1]]
		if !ok {
			return fmt.Errorf("policy: exporter %q has no value for %q", parts[0], parts[1])
		}
		sec.Value = v
	}
	return nil
}

// Redacted returns a copy safe to show to unauthenticated callers: secret
// values and file-system keys are blanked.
func (p *Policy) Redacted() *Policy {
	cp := p.Clone()
	for i := range cp.Secrets {
		cp.Secrets[i].Value = ""
	}
	for i := range cp.Services {
		cp.Services[i].FSPFKey = ""
	}
	return cp
}

// Clone deep-copies the policy.
func (p *Policy) Clone() *Policy {
	cp := *p
	cp.Services = make([]Service, len(p.Services))
	for i, s := range p.Services {
		cs := s
		cs.MREnclaves = append([]sgx.Measurement(nil), s.MREnclaves...)
		cs.Platforms = append([]sgx.PlatformID(nil), s.Platforms...)
		cs.FSPFTags = append([]fspf.Tag(nil), s.FSPFTags...)
		cs.InjectionFiles = append([]InjectionFile(nil), s.InjectionFiles...)
		if s.Environment != nil {
			cs.Environment = make(map[string]string, len(s.Environment))
			for k, v := range s.Environment {
				cs.Environment[k] = v
			}
		}
		cp.Services[i] = cs
	}
	cp.Secrets = append([]Secret(nil), p.Secrets...)
	cp.Imports = append([]Import(nil), p.Imports...)
	cp.Board.Members = append([]BoardMember(nil), p.Board.Members...)
	cp.Exports.MREnclaves = append([]sgx.Measurement(nil), p.Exports.MREnclaves...)
	cp.Exports.FSPFTags = append([]fspf.Tag(nil), p.Exports.FSPFTags...)
	cp.Exports.Secrets = append([]string(nil), p.Exports.Secrets...)
	return &cp
}
