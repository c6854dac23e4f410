package store

// Read origins, as reported by ReadShardPayloadOrigin: where a shard
// payload's bytes actually came from. Execution engines stamp these on
// shard-IO trace spans so a request timeline shows which reads hit
// flash and which the cache hierarchy absorbed.
const (
	OriginFlash = "flash" // read from the local backing store
	OriginCache = "cache" // retained or coalesced SharedCache hit
	OriginPeer  = "peer"  // served by a peer node's retained copy
)

// OriginReader is the optional tagged read surface: ReadShardPayload
// plus the payload's origin. Both *Store and *SharedCache implement
// it; engines type-assert their PayloadReader to record origins and
// fall back to the untagged read when the source does not support it.
type OriginReader interface {
	PayloadReader
	ReadShardPayloadOrigin(layer, slice, bits int) (payload []byte, origin string, err error)
}

var (
	_ OriginReader = (*Store)(nil)
	_ OriginReader = (*SharedCache)(nil)
)

// ReadShardPayloadOrigin implements OriginReader; a bare store always
// reads flash.
func (s *Store) ReadShardPayloadOrigin(layer, slice, bits int) ([]byte, string, error) {
	p, err := s.ReadShardPayload(layer, slice, bits)
	return p, OriginFlash, err
}
