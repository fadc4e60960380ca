// Package fsatomic is the one blessed way PALÆMON persists a file whose
// loss or truncation would violate a durability invariant: write the
// bytes to a temp file in the destination directory, fsync the file,
// close it, atomically rename it over the destination, and fsync the
// directory so the rename itself survives power loss. os.WriteFile
// alone syncs nothing — a crash can surface an empty or torn file after
// reboot even though the write "succeeded" — and rename-without-sync
// can publish a name pointing at unsynced bytes. The durablewrite
// analyzer (internal/lint/durablewrite) flags any persistence in
// internal/kvdb or internal/sgx that bypasses this helper.
//
// Every entry point has an FS-parameterised twin (WriteFileFS,
// SyncDirFS, SweepTmp) taking a fault.FS so the crash-consistency
// harness (internal/chaos) can enumerate this package's own fault
// points; the plain functions run on the real filesystem.
package fsatomic

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"palaemon/internal/fault"
)

// tmpSuffix marks in-flight temp files; a crash between create and
// rename strands one, and SweepTmp reclaims it.
const tmpSuffix = ".tmp"

// WriteFile atomically and durably replaces path with data on the real
// filesystem. See WriteFileFS.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFileFS(fault.OS, path, data, perm)
}

// WriteFileFS atomically and durably replaces path with data through
// fsys. The temp file lives in path's directory (rename must not cross
// filesystems) under a ".tmp" suffix. On any error the temp file is
// removed (best-effort — a crash leaves an orphan for SweepTmp); the
// previous contents of path remain intact.
func WriteFileFS(fsys fault.FS, path string, data []byte, perm os.FileMode) error {
	tmp := path + tmpSuffix
	//palaemon:allow durablewrite -- this IS the blessed sink: the raw write below is followed by fsync, atomic rename, and directory fsync
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return fmt.Errorf("fsatomic: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("fsatomic: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("fsatomic: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("fsatomic: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("fsatomic: publish %s: %w", path, err)
	}
	return SyncDirFS(fsys, filepath.Dir(path))
}

// degradedDirs rate-limits the SyncDirFS degrade warning to once per
// directory per process — the condition is a property of the mount, so
// repeating it per write is noise.
var degradedDirs sync.Map

// SyncDirFS fsyncs a directory so a just-completed rename in it is
// durable. Filesystems that reject directory fsync (some network and
// FUSE mounts) degrade to best-effort, matching the pre-existing NVRAM
// behaviour — but the degrade is no longer silent: the first failure
// per directory emits a structured warning, because an operator running
// on such a mount has weaker crash guarantees than DESIGN.md promises.
func SyncDirFS(fsys fault.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		warnDegraded(dir, err)
		return nil
	}
	if err := d.Sync(); err != nil {
		warnDegraded(dir, err)
	}
	return d.Close()
}

func warnDegraded(dir string, err error) {
	if _, seen := degradedDirs.LoadOrStore(dir, true); seen {
		return
	}
	slog.Warn("fsatomic: directory fsync degraded to best-effort; renames in this directory may not survive power loss",
		"dir", dir, "err", err)
}

// SweepTmp removes stale "*.tmp" orphans in dir — the residue of a
// crash between temp-file create and rename. It is called from the
// open paths of the packages that persist through WriteFile (kvdb,
// NVRAM), at a point where no write can be in flight, so anything with
// the suffix is garbage by construction. Returns the names removed.
func SweepTmp(fsys fault.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fsatomic: sweep %s: %w", dir, err)
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), tmpSuffix) {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if err := fsys.Remove(p); err != nil {
			return removed, fmt.Errorf("fsatomic: sweep %s: %w", p, err)
		}
		removed = append(removed, e.Name())
	}
	return removed, nil
}
