package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"palaemon/internal/cryptoutil"
	"palaemon/internal/wire"
)

// readSized reads r, which the caller has already capped, to its end. A
// declared length sizes the buffer in one step, where io.ReadAll starts at
// 512 B and regrows; MinRead past it is the room ReadFrom wants free
// before the read that returns EOF. A length that is absent (-1, chunked)
// or over the wire cap sizes nothing: the cap is enforced on the bytes
// that arrive, not on a header. The caller passes a length it trusts that
// far: the client the authenticated server's, the server a clamped one
// (decodeBodyV2).
func readSized(r io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared > 0 && declared <= wire.MaxResponseBytes {
		buf.Grow(int(declared) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// readFileIfExists returns (nil, nil) for a missing file.
func readFileIfExists(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: read %s: %w", path, err)
	}
	return raw, nil
}

// writeFileAtomic writes via a temp file and rename.
func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return fmt.Errorf("core: create dir: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return fmt.Errorf("core: write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: publish %s: %w", path, err)
	}
	return nil
}

func marshalSigner(s *cryptoutil.Signer) []byte { return s.Seed() }

func signerFromIdentity(id identity) (*cryptoutil.Signer, error) {
	s, err := cryptoutil.SignerFromSeed(id.Ed25519Private)
	if err != nil {
		return nil, fmt.Errorf("core: restore identity signer: %w", err)
	}
	return s, nil
}
