package namespace

import (
	"errors"
	"slices"
	"strings"
)

// ErrInvalidPath reports a syntactically invalid absolute path.
var ErrInvalidPath = errors.New("namespace: invalid path")

// CleanPath normalizes an absolute path: collapses repeated slashes,
// removes trailing slashes (except for the root itself), and rejects
// relative paths and "."/".." components. It returns the canonical form. A
// path that already is canonical — every request's path, in practice —
// comes back as it is after one scan, without allocating; any other is
// split and rejoined (joinClean).
func CleanPath(p string) (string, error) {
	if canonical(p) {
		return p, nil
	}
	return joinClean(p)
}

// canonical reports whether p is "/" or a "/"-led path with no empty, "."
// or ".." component, which is what CleanPath returns.
func canonical(p string) bool {
	if p == "/" {
		return true
	}
	if !strings.HasPrefix(p, "/") {
		return false
	}
	for rest, more := p[1:], true; more; {
		var c string
		if c, rest, more = strings.Cut(rest, "/"); c == "" || c == "." || c == ".." {
			return false
		}
	}
	return true
}

// joinClean is CleanPath by splitting p on "/" and joining what is left.
func joinClean(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", ErrInvalidPath
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		switch part {
		case "":
			continue
		case ".", "..":
			return "", ErrInvalidPath
		default:
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(out, "/"), nil
}

// SplitPath returns the path components of a canonical absolute path
// (excluding the root). SplitPath("/") returns nil.
func SplitPath(p string) []string {
	if p == "/" || p == "" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// AppendSplit appends SplitPath(p)'s components to dst: with room in dst —
// a stack buffer, say — splitting allocates nothing.
func AppendSplit(dst []string, p string) []string {
	cs := Walk(p)
	dst = slices.Grow(dst, cs.Len())
	for c, ok := cs.Next(); ok; c, ok = cs.Next() {
		dst = append(dst, c)
	}
	return dst
}

// Components walks a canonical path's components one at a time, exactly as
// SplitPath splits it, without allocating. The zero value walks none.
type Components struct {
	rest string
	more bool
}

// Walk returns the walk over p's components.
func Walk(p string) Components {
	return Components{rest: strings.TrimPrefix(p, "/"), more: p != "/" && p != ""}
}

// Next returns the next component; ok is false once there is none.
func (cs *Components) Next() (comp string, ok bool) {
	if !cs.more {
		return "", false
	}
	comp, cs.rest, cs.more = strings.Cut(cs.rest, "/")
	return comp, true
}

// Len returns how many components are left to walk.
func (cs Components) Len() int {
	if !cs.more {
		return 0
	}
	return 1 + strings.Count(cs.rest, "/")
}

// Dir splits off the last component: parent walks the ones before it. ok is
// false when there is none (the root).
func (cs Components) Dir() (parent Components, last string, ok bool) {
	if !cs.more {
		return Components{}, "", false
	}
	i := strings.LastIndexByte(cs.rest, '/')
	if i < 0 {
		return Components{}, cs.rest, true
	}
	return Components{rest: cs.rest[:i], more: true}, cs.rest[i+1:], true
}

// ParentPath returns the parent directory of a canonical path.
// ParentPath("/") is "/".
func ParentPath(p string) string {
	if p == "/" || p == "" {
		return "/"
	}
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// BaseName returns the final component of a canonical path; "" for root.
func BaseName(p string) string {
	if p == "/" || p == "" {
		return ""
	}
	i := strings.LastIndexByte(p, '/')
	return p[i+1:]
}

// JoinPath joins a canonical directory path with a child name.
func JoinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// HasPathPrefix reports whether path is prefix itself or lies underneath
// it ("/a/b" has prefix "/a" but not "/ab").
func HasPathPrefix(path, prefix string) bool {
	if prefix == "/" {
		return strings.HasPrefix(path, "/")
	}
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	return len(path) == len(prefix) || path[len(prefix)] == '/'
}

// Ancestors returns every proper ancestor path of p from the root down,
// excluding p itself: Ancestors("/a/b/c") = ["/", "/a", "/a/b"].
func Ancestors(p string) []string {
	comps := SplitPath(p)
	if len(comps) == 0 {
		return nil
	}
	out := make([]string, 0, len(comps))
	out = append(out, "/")
	cur := ""
	for _, c := range comps[:len(comps)-1] {
		cur = cur + "/" + c
		out = append(out, cur)
	}
	return out
}
