package accel

import (
	"fmt"
	"math"

	"repro/internal/composer"
)

// Placement maps a planned network onto physical tiles (Fig. 9): each tile
// hosts 1k RNA blocks and one broadcast buffer; a layer larger than a tile
// spans several tiles, and activation traffic between layers placed on
// different tiles pays inter-tile transfer for every encoded activation. The
// controller "assigns a unique register for each tile that allows each tile
// to be configured individually" (§4.3). Blocks are packed continuously:
// consecutive layers share a tile whenever their blocks fit, which turns
// their broadcast traffic into cheap local buffer writes — in this cost
// model packing never loses, so the compilation pass emits packed layouts
// unconditionally.
type Placement struct {
	Layers []LayerPlacement
	// TilesUsed is the total tiles occupied across all chips.
	TilesUsed int
	// IntraTileBits / InterTileBits split the activation traffic by the
	// actual tile-span overlap between producer and consumer: the fraction
	// of the producer's output blocks that sit on tiles the consumer also
	// occupies writes the local buffer, the rest pays the inter-tile drive
	// penalty.
	IntraTileBits int64
	InterTileBits int64
	// BufferEnergyJ is the broadcast-buffer energy per input implied by the
	// traffic (inter-tile transfers cost extra drive energy).
	BufferEnergyJ float64
}

// LayerPlacement records one stage's tile span.
type LayerPlacement struct {
	Name    string
	Neurons int
	// Blocks is the RNA blocks of one replica group; Replicas the number of
	// cascaded groups (see StageSpec).
	Blocks   int
	Replicas int
	// FirstTile..FirstTile+Tiles-1 is the contiguous tile span covering all
	// replica groups.
	FirstTile int
	Tiles     int

	// groupStarts holds each replica group's absolute first block address;
	// the traffic classification needs block granularity, not just tiles.
	groupStarts []int
}

// InterTilePenalty is the drive-energy multiplier of crossing a tile
// boundary relative to a local buffer write.
const InterTilePenalty = 3.0

// Place assigns the uncompiled mapping (uniform sharing, no replication) to
// tiles. It returns an error when the network exceeds the deployment's tile
// capacity — the multiplexed regime, where a static placement does not
// exist.
func Place(plans []*composer.LayerPlan, cfg Config) (*Placement, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return PlaceStages(DefaultStages(plans, cfg), cfg)
}

// PlaceStages packs an explicit stage list onto tiles, block by block:
// replica groups are laid out consecutively, and a stage starts right after
// its predecessor's last block rather than on a fresh tile. The traffic
// split is computed from the resulting block-level layout.
func PlaceStages(stages []StageSpec, cfg Config) (*Placement, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	perTile := cfg.Dev.RNAsPerTile
	capacityTiles := cfg.Chips * cfg.Dev.TilesPerChip
	p := &Placement{}
	addr := 0 // next free absolute block address
	for _, st := range stages {
		if st.Blocks < 1 || st.Replicas < 1 {
			return nil, fmt.Errorf("accel: stage %s has %d blocks x%d replicas",
				st.Plan.Name, st.Blocks, st.Replicas)
		}
		lp := LayerPlacement{
			Name: st.Plan.Name, Neurons: st.Plan.Neurons,
			Blocks: st.Blocks, Replicas: st.Replicas,
			FirstTile: addr / perTile,
		}
		for g := 0; g < st.Replicas; g++ {
			lp.groupStarts = append(lp.groupStarts, addr)
			addr += st.Blocks
		}
		lp.Tiles = (addr-1)/perTile - lp.FirstTile + 1
		p.Layers = append(p.Layers, lp)
	}
	if len(p.Layers) == 0 {
		return p, nil
	}
	p.TilesUsed = (addr + perTile - 1) / perTile
	if p.TilesUsed > capacityTiles {
		return nil, fmt.Errorf("accel: placement needs %d tiles, only %d available (use more chips or multiplexing)",
			p.TilesUsed, capacityTiles)
	}

	// Activation traffic: the producer's cascade output (its last replica
	// group) broadcasts every neuron's encoded value; each consumer replica
	// group receives the slice feeding its fan-in chunk. Bits landing on a
	// tile the producing blocks also occupy are local buffer writes.
	for i := 0; i+1 < len(stages); i++ {
		producer, consumer := p.Layers[i], p.Layers[i+1]
		bitsPer := int64(bitsFor(max(stages[i].Plan.U(), 2)))
		total := int64(stages[i].Plan.Neurons) * bitsPer
		srcStart := producer.groupStarts[len(producer.groupStarts)-1]
		srcEnd := srcStart + producer.Blocks
		var intraF float64
		for _, gStart := range consumer.groupStarts {
			gEnd := gStart + consumer.Blocks
			// Tile range the consumer group occupies, in block addresses.
			tLo := (gStart / perTile) * perTile
			tHi := ((gEnd-1)/perTile + 1) * perTile
			overlap := intervalOverlap(srcStart, srcEnd, tLo, tHi)
			intraF += float64(total) / float64(len(consumer.groupStarts)) *
				float64(overlap) / float64(srcEnd-srcStart)
		}
		intra := int64(math.Round(intraF))
		if intra > total {
			intra = total
		}
		p.IntraTileBits += intra
		p.InterTileBits += total - intra
	}
	p.BufferEnergyJ = float64(p.IntraTileBits)*cfg.Dev.BufferEnergyPerBit +
		float64(p.InterTileBits)*cfg.Dev.BufferEnergyPerBit*InterTilePenalty
	return p, nil
}

// intervalOverlap returns |[a1,a2) ∩ [b1,b2)|.
func intervalOverlap(a1, a2, b1, b2 int) int {
	lo, hi := a1, a2
	if b1 > lo {
		lo = b1
	}
	if b2 < hi {
		hi = b2
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func bitsFor(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
