package aesx

// EncryptBlockReference exposes the FIPS-197 round-function reference to
// the external differential tests in blocks_test.go.
func (c *Cipher) EncryptBlockReference(dst, src []byte) { c.encryptBlockReference(dst, src) }
