package sim

// ChunkSize exposes the drive loops' handoff size to the external
// tests, which place stream lengths on its edges.
const ChunkSize = chunkSize

// MemoMaxAccesses is the longest stream Filter replays from the memo.
const MemoMaxAccesses = memoMaxAccesses

// FilterGenerated is Filter's generated path, which every stream longer
// than MemoMaxAccesses takes and which fills the memo for the shorter
// ones.
var FilterGenerated = filterGenerated
