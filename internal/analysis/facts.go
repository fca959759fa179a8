package analysis

// The facts layer makes bovet interprocedural across the module, mirroring
// golang.org/x/tools/go/analysis facts on the standard library only.
//
// A Fact is a serializable statement an analyzer proves about one object
// (a function, method, type or package-level variable) or about a whole
// package while analyzing the package that declares it. Packages are
// analyzed in dependency order — the loader emits dependencies before their
// importers, exactly as `go list -deps` orders them — so when a pass later
// analyzes an importer, the facts of everything it can reference are
// already available through Pass.ImportObjectFact / ImportPackageFact.
//
// This is what turns per-package invariants into module-wide ones: a
// result-affecting package calling an infra helper that (transitively)
// reads time.Now is a finding at the call site, because the helper's
// defining package exported a Nondeterministic fact on it; a hot loop
// calling a concrete function in another package is checked against that
// function's Allocates fact instead of stopping at the package edge.
//
// Encoding and identity. Facts travel as gob: each analyzer lists concrete
// prototypes in Analyzer.FactTypes, and the Runner registers them with gob
// before the first package runs. Objects are keyed by a stable string —
// "Name" for package-scope objects, "Recv.Name" for methods — which covers
// everything a downstream package can statically reference through export
// data (only package-scope objects and methods of named types are visible
// across a package boundary; an unexported helper's facts are consumed
// inside its own package and summarized onto its exported callers).
//
// Persistence. In standalone mode facts live only in the Runner's memory
// for one run: every module dependency is re-analyzed each time, which
// costs no more than reading a cache did. Under `go vet -vettool=` the go
// command persists them: dependency facts arrive through the .cfg's
// PackageVetx table and this package's facts leave through VetxOutput (see
// cmd/bovet/vettool.go).

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"strings"
)

// Fact is a statement proved about an object or package, exported by the
// pass analyzing the defining package and importable by every downstream
// pass. Implementations must be gob-encodable pointer types listed in
// their analyzer's FactTypes.
type Fact interface {
	// AFact is a marker; it has no behavior.
	AFact()
}

// ObjectKey returns the stable cross-package identity of a package-scope
// object: "Name" for functions, types, vars and consts, "Recv.Name" for
// methods of a named type. It returns "" for objects that cannot be
// referenced from another package's syntax (locals, struct fields,
// interface methods of anonymous interfaces), which are not keyable.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // not package-scope: invisible across packages
	}
	return obj.Name()
}

// factKey identifies one fact: the defining package, the object key (""
// for package facts), and the concrete fact type.
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// factStore holds every fact of the current run: imported ones (from the
// cache or the vet driver) and ones exported by passes as they execute.
type factStore struct {
	m map[factKey]Fact
	// order remembers per-package insertion order so encoded blobs are
	// byte-stable regardless of map iteration.
	order map[string][]factKey
}

func newFactStore() *factStore {
	return &factStore{m: make(map[factKey]Fact), order: make(map[string][]factKey)}
}

func (s *factStore) put(pkg, obj string, f Fact) {
	k := factKey{pkg, obj, reflect.TypeOf(f)}
	if _, dup := s.m[k]; !dup {
		s.order[pkg] = append(s.order[pkg], k)
	}
	s.m[k] = f
}

// get copies the stored fact for (pkg, obj, type of fptr) into fptr and
// reports whether one existed.
func (s *factStore) get(pkg, obj string, fptr Fact) bool {
	k := factKey{pkg, obj, reflect.TypeOf(fptr)}
	f, ok := s.m[k]
	if !ok {
		return false
	}
	reflect.ValueOf(fptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// wireFact is the gob record for one fact. The package is implicit: blobs
// are encoded and decoded per package.
type wireFact struct {
	Obj  string // ObjectKey, "" for a package fact
	Fact Fact
}

// encodePackage serializes every fact exported for pkgPath, in export
// order.
func (s *factStore) encodePackage(pkgPath string) ([]byte, error) {
	var recs []wireFact
	for _, k := range s.order[pkgPath] {
		recs = append(recs, wireFact{Obj: k.obj, Fact: s.m[k]})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		return nil, fmt.Errorf("encoding facts for %s: %v", pkgPath, err)
	}
	return buf.Bytes(), nil
}

// decodePackage merges a previously encoded blob's facts into the store
// under pkgPath.
func (s *factStore) decodePackage(pkgPath string, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var recs []wireFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recs); err != nil {
		return fmt.Errorf("decoding facts for %s: %v", pkgPath, err)
	}
	for _, r := range recs {
		s.put(pkgPath, r.Obj, r.Fact)
	}
	return nil
}

// RegisterFactTypes registers every analyzer's fact prototypes with gob.
// Idempotent per process; called by the Runner and the vettool driver
// before any encode or decode.
func RegisterFactTypes(analyzers []*Analyzer) {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			gobRegisterOnce(f)
		}
	}
}

var gobRegistered = make(map[reflect.Type]bool)

func gobRegisterOnce(f Fact) {
	t := reflect.TypeOf(f)
	if gobRegistered[t] {
		return
	}
	gobRegistered[t] = true
	gob.Register(f)
}

// ModulePackage reports whether pkgPath belongs to this module — the only
// packages bovet exports facts for (the standard library's behavior is
// axiomatic: it appears in analyzers as banned-function lists, not facts).
func ModulePackage(pkgPath string) bool {
	return pkgPath == strings.TrimSuffix(modulePrefix, "/") ||
		strings.HasPrefix(pkgPath, modulePrefix)
}
