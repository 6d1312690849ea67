// Package clamav reproduces the paper's running example (Sections 1 and
// 6.1): an untrusted virus scanner, its helper decoders, and its update
// daemon, isolated by the small trusted wrap program.  The scanner is a
// byte-signature matcher in the spirit of ClamAV; the security argument does
// not depend on the scanner at all — that is the point — only on wrap and
// the kernel's label checks.
package clamav

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"

	"histar/internal/label"
	"histar/internal/unixlib"
)

// Signature is one virus signature: a name and the byte pattern whose
// presence marks a file as infected.
type Signature struct {
	Name    string
	Pattern []byte
}

// Database is the virus signature database, stored as the file
// /var/clamav/db on the HiStar file system and updated by the update daemon.
type Database struct {
	Signatures []Signature
}

// DefaultDatabase returns a small built-in database used when no update has
// been fetched.
func DefaultDatabase() Database {
	return Database{Signatures: []Signature{
		{Name: "Eicar-Test-Signature", Pattern: []byte(`X5O!P%@AP[4\PZX54(P^)7CC)7}$EICAR`)},
		{Name: "Worm.Slammer.Sim", Pattern: []byte{0x04, 0x01, 0x01, 0x01, 0x01, 0xdc, 0xc9, 0xb0}},
		{Name: "Trojan.Sircam.Sim", Pattern: []byte("SirC32.exe payload marker")},
	}}
}

// Encode serializes the database into the on-disk format (one "name:hexpattern"
// line per signature).
func (db Database) Encode() []byte {
	var b bytes.Buffer
	for _, sig := range db.Signatures {
		fmt.Fprintf(&b, "%s:%x\n", sig.Name, sig.Pattern)
	}
	return b.Bytes()
}

// ParseDatabase parses the on-disk database format.
func ParseDatabase(data []byte) (Database, error) {
	var db Database
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexpat, ok := strings.Cut(line, ":")
		if !ok {
			return Database{}, fmt.Errorf("clamav: malformed signature line %q", line)
		}
		var pat []byte
		if _, err := fmt.Sscanf(hexpat, "%x", &pat); err != nil {
			return Database{}, fmt.Errorf("clamav: bad pattern in %q: %v", line, err)
		}
		db.Signatures = append(db.Signatures, Signature{Name: name, Pattern: pat})
	}
	return db, sc.Err()
}

// Result is the outcome of scanning one file.
type Result struct {
	Infected bool
	Virus    string
	Bytes    int
}

// ScanBytes checks data against the database.
func ScanBytes(db Database, data []byte) Result {
	r := Result{Bytes: len(data)}
	for _, sig := range db.Signatures {
		if len(sig.Pattern) > 0 && bytes.Contains(data, sig.Pattern) {
			r.Infected = true
			r.Virus = sig.Name
			return r
		}
	}
	return r
}

// DatabasePath is where the scanner and update daemon keep the signature DB.
const DatabasePath = "/var/clamav/db"

// InstallDatabase writes db to the conventional path using proc's
// privileges (used by setup code and by the update daemon).
func InstallDatabase(proc *unixlib.Process, db Database) error {
	_ = proc.Mkdir("/var", label.New(label.L1))
	_ = proc.Mkdir("/var/clamav", label.New(label.L1))
	return proc.WriteFile(DatabasePath, db.Encode(), label.New(label.L1))
}

// LoadDatabase reads the database with proc's privileges, falling back to
// the built-in database when none is installed.
func LoadDatabase(proc *unixlib.Process) Database {
	data, err := proc.ReadFile(DatabasePath)
	if err != nil {
		return DefaultDatabase()
	}
	db, err := ParseDatabase(data)
	if err != nil {
		return DefaultDatabase()
	}
	return db
}

// Scanner is the untrusted scanner program body: it loads the database,
// scans every requested file (spawning "helper" work for archive-like
// inputs), and writes its report to the path given as the final argument.
// It runs with whatever label wrap gave its process — if that label taints
// it v3, nothing it does can reach the network or the update daemon.
func Scanner(p *unixlib.Process, args []string) int {
	if len(args) < 2 {
		return 2
	}
	reportPath := args[len(args)-1]
	files := args[:len(args)-1]
	db := LoadDatabase(p)
	var report bytes.Buffer
	exit := 0
	for _, path := range files {
		data, err := p.ReadFile(path)
		if err != nil {
			fmt.Fprintf(&report, "%s: ERROR %v\n", path, err)
			exit = 2
			continue
		}
		res := scanWithHelpers(db, data)
		if res.Infected {
			fmt.Fprintf(&report, "%s: FOUND %s\n", path, res.Virus)
			exit = 1
		} else {
			fmt.Fprintf(&report, "%s: OK (%d bytes)\n", path, res.Bytes)
		}
	}
	if err := p.WriteFile(reportPath, report.Bytes(), label.Label{}); err != nil {
		return 2
	}
	return exit
}

// scanWithHelpers models the scanner's helper programs: container formats
// are "decoded" (here: a simple framing) and each member scanned.
func scanWithHelpers(db Database, data []byte) Result {
	if members, ok := decodeArchive(data); ok {
		for _, m := range members {
			res := ScanBytes(db, m)
			if res.Infected {
				res.Bytes = len(data)
				return res
			}
		}
		return Result{Bytes: len(data)}
	}
	return ScanBytes(db, data)
}

// Archive framing used by the simulated helper: "HARC" magic, then
// length-prefixed members.
func decodeArchive(data []byte) ([][]byte, bool) {
	if !bytes.HasPrefix(data, []byte("HARC")) {
		return nil, false
	}
	var members [][]byte
	p := data[4:]
	for len(p) >= 4 {
		n := int(uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24)
		p = p[4:]
		if n < 0 || n > len(p) {
			return members, true
		}
		members = append(members, p[:n])
		p = p[n:]
	}
	return members, true
}

// EncodeArchive builds the helper's archive framing (the tests build the
// scanner's archive inputs with it).
func EncodeArchive(members ...[]byte) []byte {
	out := []byte("HARC")
	for _, m := range members {
		out = append(out, byte(len(m)), byte(len(m)>>8), byte(len(m)>>16), byte(len(m)>>24))
		out = append(out, m...)
	}
	return out
}

// UpdateDaemon is the update daemon program body: it "downloads" a new
// database (from the byte payload passed through args[0] in this
// reproduction) and installs it.  It runs with write privilege on the
// ClamAV executable and database but — on HiStar — no ability to read user
// data.
func UpdateDaemon(p *unixlib.Process, args []string) int {
	if len(args) < 1 {
		return 2
	}
	db, err := ParseDatabase([]byte(args[0]))
	if err != nil {
		return 2
	}
	if err := InstallDatabase(p, db); err != nil {
		return 1
	}
	return 0
}
