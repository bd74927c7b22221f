package blocking

// PurgeBySize removes blocks whose size exceeds maxFraction of the profile
// universe. The paper uses maxFraction = 0.5: "Block Purging discards all
// the blocks that contain more than half of the profiles in the
// collection", which eliminates highly frequent blocking keys such as
// stop-words.
func PurgeBySize(c *Collection, maxFraction float64) *Collection {
	if maxFraction <= 0 {
		maxFraction = 0.5
	}
	limit := maxFraction * float64(c.NumProfiles)
	out := &Collection{CleanClean: c.CleanClean, NumProfiles: c.NumProfiles}
	survivors := 0
	for i := range c.Blocks {
		if float64(c.Blocks[i].Size()) <= limit {
			survivors++
		}
	}
	out.Blocks = make([]Block, 0, survivors)
	for i := range c.Blocks {
		if float64(c.Blocks[i].Size()) <= limit {
			out.Blocks = append(out.Blocks, c.Blocks[i])
		}
	}
	return out
}
