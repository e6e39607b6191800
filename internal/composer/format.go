package composer

// FormatFlat is the artifact format reported to the serving fleet for a
// disk-backed model: the rollout controller compares it (and the
// version/checksum the server derives per file) against its registry to
// verify what a replica actually serves.
const FormatFlat = flatMagic

// VerifyFile is the registry's push gate: it fully loads the artifact
// (exercising every structural validation of the reader) and replays its
// embedded canaries, returning how many diverged. The model is released
// before returning — this is a check, not a load.
func VerifyFile(path string) (canariesFailed int, err error) {
	c, err := LoadFile(path)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.CheckCanaries()
}
