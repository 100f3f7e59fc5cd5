package sim

// ChunkSize exposes the drive loops' handoff size to the external
// tests, which place stream lengths on its edges.
const ChunkSize = chunkSize
