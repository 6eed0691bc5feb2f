package wire

// The docs gate (`make docs`) runs TestFrameRegistry: ARCHITECTURE.md
// §2.9 is the normative wire frame registry, and this test fails the
// build when that table and the binary codec's tag map disagree — in
// either direction. It keeps the spec honest the same way the package
// tests keep the code honest: renumbering a tag, forgetting to document
// a new frame type, or documenting one the codec does not implement all
// fail here.

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// registryRow matches one body row of the §2.9 table: `| 15 | `rollup` | …`.
var registryRow = regexp.MustCompile("^\\|\\s*(\\d+)\\s*\\|\\s*`([a-z_]+)`\\s*\\|")

// flagRow matches one body row of §2.9's flag-bit table: `| 8 | `trace` | …`.
// The tables share a shape; parseFrameRegistry tells them apart by the
// heading each sits under.
var flagRow = registryRow

// parseFrameRegistry extracts the tag → type table from ARCHITECTURE.md's
// "Wire frame registry" section, ending at the next section heading.
func parseFrameRegistry(path string) (map[byte]MsgType, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reg := make(map[byte]MsgType)
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#") && strings.Contains(line, "Wire frame registry"):
			in = true
		case in && strings.HasPrefix(line, "#"):
			return reg, sc.Err()
		case in:
			m := registryRow.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			tag, err := strconv.ParseUint(m[1], 10, 8)
			if err != nil {
				return nil, fmt.Errorf("row %q: %v", line, err)
			}
			if prev, dup := reg[byte(tag)]; dup {
				return nil, fmt.Errorf("tag %d listed twice: %q and %q", tag, prev, m[2])
			}
			reg[byte(tag)] = MsgType(m[2])
		}
	}
	return reg, sc.Err()
}

// parseFlagRegistry extracts the bit → Message-field table from
// ARCHITECTURE.md's "Flag-bit registry" heading, ending at the next
// section heading.
func parseFlagRegistry(path string) (map[uint64]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reg := make(map[uint64]string)
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#") && strings.Contains(line, "Flag-bit registry"):
			in = true
		case in && strings.HasPrefix(line, "#"):
			return reg, sc.Err()
		case in:
			m := flagRow.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			bit, err := strconv.ParseUint(m[1], 10, 6)
			if err != nil {
				return nil, fmt.Errorf("row %q: %v", line, err)
			}
			if prev, dup := reg[1<<bit]; dup {
				return nil, fmt.Errorf("bit %d listed twice: %q and %q", bit, prev, m[2])
			}
			reg[1<<bit] = m[2]
		}
	}
	return reg, sc.Err()
}

func TestFrameRegistry(t *testing.T) {
	const spec = "../../ARCHITECTURE.md"
	reg, err := parseFrameRegistry(spec)
	if err != nil {
		t.Fatalf("parsing %s: %v", spec, err)
	}
	if len(reg) == 0 {
		t.Fatalf("no registry rows found in %s — was the §2.9 table renamed or reformatted?", spec)
	}
	for typ, tag := range tagOfType {
		if got, ok := reg[tag]; !ok {
			t.Errorf("binary tag %d (%q) is not in the %s registry", tag, typ, spec)
		} else if got != typ {
			t.Errorf("binary tag %d is %q in the codec but %q in %s", tag, typ, got, spec)
		}
	}
	for tag, typ := range reg {
		if typeOfTag[tag] == "" {
			t.Errorf("%s registers tag %d (%q) which the codec does not implement", spec, tag, typ)
		}
	}

	flags, err := parseFlagRegistry(spec)
	if err != nil {
		t.Fatalf("parsing %s flag-bit registry: %v", spec, err)
	}
	if len(flags) == 0 {
		t.Fatalf("no flag-bit rows found in %s — was the §2.9 flag table renamed or reformatted?", spec)
	}
	for field, bit := range flagOfField {
		if got, ok := flags[bit]; !ok {
			t.Errorf("codec flag bit %#x (%q) is not in the %s flag-bit registry", bit, field, spec)
		} else if got != field {
			t.Errorf("flag bit %#x gates %q in the codec but %q in %s", bit, field, got, spec)
		}
	}
	for bit, field := range flags {
		if _, ok := flagOfField[field]; !ok {
			t.Errorf("%s registers flag bit %#x (%q) which the codec does not implement", spec, bit, field)
		}
	}
}
