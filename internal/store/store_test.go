package store

import (
	"errors"
	"testing"

	"lambdafs/internal/namespace"
	"lambdafs/internal/trace"
)

func TestLockModeStrings(t *testing.T) {
	cases := map[LockMode]string{
		LockNone:      "none",
		LockShared:    "shared",
		LockExclusive: "exclusive",
		LockMode(42):  "invalid",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("LockMode(%d).String() = %q, want %q", m, got, want)
		}
	}
}

// fakeStore exercises RunTx's retry policy without a real store;
// BeginTraced and Release are all RunTx asks of one.
type fakeStore struct {
	beginCount int
	released   []*fakeTx
	failTimes  int
	fn         func(*fakeTx) error
}

type fakeTx struct {
	s         *fakeStore
	committed bool
	aborted   bool
}

func (s *fakeStore) BeginTraced(string, *trace.Ctx) Tx {
	s.beginCount++
	return &fakeTx{s: s}
}

func (s *fakeStore) Release(tx Tx) {
	t := tx.(*fakeTx)
	if !t.committed {
		t.aborted = true
	}
	s.released = append(s.released, t)
}

func (t *fakeTx) GetINode(namespace.INodeID, LockMode) (*namespace.INode, error) {
	if t.s.failTimes > 0 {
		t.s.failTimes--
		return nil, ErrLockTimeout
	}
	return namespace.NewRoot(), nil
}
func (t *fakeTx) ResolvePathBatched(string, LockMode, LockMode) ([]*namespace.INode, error) {
	return nil, nil
}
func (t *fakeTx) LockPath(string) (LockedPath, error) { return LockedPath{}, nil }
func (t *fakeTx) LockPaths(string, string) (LockedPath, LockedPath, error) {
	return LockedPath{}, LockedPath{}, nil
}
func (t *fakeTx) GetINodesBatched([]namespace.INodeID, LockMode) ([]*namespace.INode, error) {
	return nil, nil
}
func (t *fakeTx) ListPathBatched(string, LockMode) (chain, children []*namespace.INode, err error) {
	return nil, nil, nil
}
func (t *fakeTx) AtCommitPoint(func())                {}
func (t *fakeTx) PutINode(*namespace.INode) error     { return nil }
func (t *fakeTx) DeleteINode(namespace.INodeID) error { return nil }
func (t *fakeTx) KVPut(string, string, []byte) error  { return nil }
func (t *fakeTx) KVDelete(string, string) error       { return nil }
func (t *fakeTx) KVScan(string, string) (map[string][]byte, error) {
	return nil, nil
}
func (t *fakeTx) Commit() error { t.committed = true; return nil }
func (t *fakeTx) Abort()        { t.aborted = true }

func TestRunTxRetriesLockTimeouts(t *testing.T) {
	s := &fakeStore{failTimes: 3}
	err := RunTx(s, "o", nil, func(tx Tx) error {
		_, err := tx.GetINode(namespace.RootID, LockExclusive)
		return err
	})
	if err != nil {
		t.Fatalf("RunTx failed through transient timeouts: %v", err)
	}
	if s.beginCount != 4 {
		t.Fatalf("begin count = %d, want 4 (3 retries)", s.beginCount)
	}
	// Each attempt is released once, after it ended: the three that timed
	// out aborted, the last committed.
	if len(s.released) != 4 {
		t.Fatalf("%d releases, want one per attempt", len(s.released))
	}
	for i, tx := range s.released {
		if last := i == 3; tx.committed != last || tx.aborted == last {
			t.Errorf("attempt %d released committed=%v aborted=%v", i, tx.committed, tx.aborted)
		}
	}
}

func TestRunTxGivesUpEventually(t *testing.T) {
	s := &fakeStore{failTimes: 1000}
	err := RunTx(s, "o", nil, func(tx Tx) error {
		_, err := tx.GetINode(namespace.RootID, LockExclusive)
		return err
	})
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	if s.beginCount != 8 {
		t.Fatalf("attempts = %d, want bounded at 8", s.beginCount)
	}
}

func TestRunTxStopsOnSemanticError(t *testing.T) {
	s := &fakeStore{}
	err := RunTx(s, "o", nil, func(tx Tx) error { return namespace.ErrExists })
	if !errors.Is(err, namespace.ErrExists) {
		t.Fatalf("err = %v", err)
	}
	if s.beginCount != 1 {
		t.Fatalf("semantic errors must not retry: %d attempts", s.beginCount)
	}
}
