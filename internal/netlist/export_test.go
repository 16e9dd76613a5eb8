package netlist

// Hooks for the external test package.
var (
	ParseDesignSeq = parseDesignSeq
	DesignSeeds    = designSeeds
)
