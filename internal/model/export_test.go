package model

// HasHead reports whether e holds its LM head, for the external tests.
func HasHead(e *Embeddings) bool { return e.tokenT != nil }
