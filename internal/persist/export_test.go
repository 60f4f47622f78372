package persist

// SetFault installs fault as f's fault hook: it runs before every
// filesystem step a write takes (open, write, fsync, rename, syncdir,
// truncate, remove), and an error it returns fails that step — a failed
// write leaves the first half of its bytes behind.
func SetFault(f *FileStore, fault func(step string) error) { f.fault = fault }

// WriteLegacy writes a session in the layout of builds before
// image-only checkpoints (see writeLegacy).
var WriteLegacy = writeLegacy

// Dir returns the store's directory.
func (f *FileStore) Dir() string { return f.dir }
