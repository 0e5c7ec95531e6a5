//! Chip geometry: how many chips, planes, blocks, layers, strings and pages.

use crate::ids::{
    BlockAddr, BlockId, CellType, ChipId, LwlId, PageAddr, PageType, PlaneId, PwlLayer, StringId,
};

/// Static geometry of a flash array.
///
/// The defaults follow the paper's platform (§VI-A): 4 pools of TLC blocks,
/// 96 physical word-line layers × 4 strings = 384 logical word-lines and
/// 1,152 pages per block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Geometry {
    chips: u16,
    planes_per_chip: u16,
    blocks_per_plane: u32,
    pwl_layers: u16,
    strings: u16,
    cell: CellType,
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry::paper_platform()
    }
}

impl Geometry {
    /// Creates a geometry after validating every dimension is non-zero.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(
        chips: u16,
        planes_per_chip: u16,
        blocks_per_plane: u32,
        pwl_layers: u16,
        strings: u16,
        cell: CellType,
    ) -> Self {
        assert!(chips > 0, "geometry needs at least one chip");
        assert!(planes_per_chip > 0, "geometry needs at least one plane per chip");
        assert!(blocks_per_plane > 0, "geometry needs at least one block per plane");
        assert!(pwl_layers > 0, "geometry needs at least one PWL layer");
        assert!(strings > 0, "geometry needs at least one string");
        Geometry { chips, planes_per_chip, blocks_per_plane, pwl_layers, strings, cell }
    }

    /// The paper's experimental shape: 4 chips × 1 plane × 1,600 blocks,
    /// 96 layers × 4 strings, TLC.
    #[must_use]
    pub fn paper_platform() -> Self {
        Geometry::new(4, 1, 1600, 96, 4, CellType::Tlc)
    }

    /// A small geometry for fast tests: 4 chips × 1 plane × 64 blocks,
    /// 8 layers × 4 strings, TLC.
    #[must_use]
    pub fn small_test() -> Self {
        Geometry::new(4, 1, 64, 8, 4, CellType::Tlc)
    }

    /// Number of chips in the array.
    #[must_use]
    pub fn chips(&self) -> u16 {
        self.chips
    }

    /// Number of planes per chip.
    #[must_use]
    pub fn planes_per_chip(&self) -> u16 {
        self.planes_per_chip
    }

    /// Number of blocks per plane.
    #[must_use]
    pub fn blocks_per_plane(&self) -> u32 {
        self.blocks_per_plane
    }

    /// Number of physical word-line layers per block.
    #[must_use]
    pub fn pwl_layers(&self) -> u16 {
        self.pwl_layers
    }

    /// Number of strings per block.
    #[must_use]
    pub fn strings(&self) -> u16 {
        self.strings
    }

    /// Cell technology.
    #[must_use]
    pub fn cell(&self) -> CellType {
        self.cell
    }

    /// Logical word-lines per block (`layers * strings`).
    #[must_use]
    pub fn lwls_per_block(&self) -> u32 {
        u32::from(self.pwl_layers) * u32::from(self.strings)
    }

    /// Pages per logical word-line (one per bit of the cell type).
    #[must_use]
    pub fn pages_per_lwl(&self) -> u32 {
        self.cell.bits_per_cell()
    }

    /// Pages per block.
    #[must_use]
    pub fn pages_per_block(&self) -> u32 {
        self.lwls_per_block() * self.pages_per_lwl()
    }

    /// Total number of blocks in the array.
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        u64::from(self.chips) * u64::from(self.planes_per_chip) * u64::from(self.blocks_per_plane)
    }

    /// Layer-major logical word-line index for `(layer, string)`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `string` is out of range.
    #[must_use]
    pub fn lwl_of(&self, layer: PwlLayer, string: StringId) -> LwlId {
        assert!(layer.0 < self.pwl_layers, "layer {layer} out of range");
        assert!(string.0 < self.strings, "string {string} out of range");
        LwlId(u32::from(layer.0) * u32::from(self.strings) + u32::from(string.0))
    }

    /// Physical word-line layer of a logical word-line.
    ///
    /// # Panics
    ///
    /// Panics if `lwl` is out of range.
    #[must_use]
    pub fn layer_of(&self, lwl: LwlId) -> PwlLayer {
        assert!(lwl.0 < self.lwls_per_block(), "lwl {lwl} out of range");
        PwlLayer((lwl.0 / u32::from(self.strings)) as u16)
    }

    /// String of a logical word-line.
    ///
    /// # Panics
    ///
    /// Panics if `lwl` is out of range.
    #[must_use]
    pub fn string_of(&self, lwl: LwlId) -> StringId {
        assert!(lwl.0 < self.lwls_per_block(), "lwl {lwl} out of range");
        StringId((lwl.0 % u32::from(self.strings)) as u16)
    }

    /// Whether a block address is within this geometry.
    #[must_use]
    pub fn contains_block(&self, addr: BlockAddr) -> bool {
        addr.chip.0 < self.chips
            && addr.plane.0 < self.planes_per_chip
            && addr.block.0 < self.blocks_per_plane
    }

    /// Iterator over every block address in the array, chip-major.
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let planes = self.planes_per_chip;
        let blocks = self.blocks_per_plane;
        (0..self.chips).flat_map(move |c| {
            (0..planes).flat_map(move |p| {
                (0..blocks).map(move |b| BlockAddr::new(ChipId(c), PlaneId(p), BlockId(b)))
            })
        })
    }

    /// Iterator over the blocks of one plane.
    pub fn plane_blocks(&self, chip: ChipId, plane: PlaneId) -> impl Iterator<Item = BlockAddr> {
        (0..self.blocks_per_plane).map(move |b| BlockAddr::new(chip, plane, BlockId(b)))
    }

    /// Iterator over every logical word-line index of a block, in program order.
    pub fn lwls(&self) -> impl Iterator<Item = LwlId> {
        (0..self.lwls_per_block()).map(LwlId)
    }

    /// Flat index of a block address, suitable for dense tables.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn block_index(&self, addr: BlockAddr) -> usize {
        assert!(self.contains_block(addr), "block address {addr} out of range");
        (usize::from(addr.chip.0) * usize::from(self.planes_per_chip) + usize::from(addr.plane.0))
            * self.blocks_per_plane as usize
            + addr.block.0 as usize
    }

    /// Total number of pages in the array.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * u64::from(self.pages_per_block())
    }

    /// Flat offset of a page within its block: `lwl * pages_per_lwl +
    /// page.slot(cell)`, i.e. program order within the block.
    ///
    /// # Panics
    ///
    /// Panics if the word-line or page type is out of range for this
    /// geometry's cell type.
    #[must_use]
    pub fn page_offset_in_block(&self, ppa: PageAddr) -> usize {
        assert!(ppa.wl.lwl.0 < self.lwls_per_block(), "lwl {} out of range", ppa.wl.lwl);
        let pt = ppa.page.slot(self.cell);
        assert!(pt < self.pages_per_lwl(), "page type {} invalid for {:?}", ppa.page, self.cell);
        self.offset_in_block(ppa)
    }

    /// [`Geometry::page_offset_in_block`] without its range checks, for the
    /// per-read paths that index a block's page tables (the tables' own
    /// bounds checks still apply).
    pub(crate) fn offset_in_block(&self, ppa: PageAddr) -> usize {
        ppa.wl.lwl.0 as usize * self.pages_per_lwl() as usize + ppa.page.slot(self.cell) as usize
    }

    /// Stable flat index of a page address, suitable for dense tables:
    /// `block_index * pages_per_block + page_offset_in_block`. Pages of one
    /// block are contiguous and ordered by `(lwl, page type)`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn page_index(&self, ppa: PageAddr) -> usize {
        self.block_index(ppa.wl.block) * self.pages_per_block() as usize
            + self.page_offset_in_block(ppa)
    }

    /// Inverse of [`Geometry::page_offset_in_block`]: the page address at a
    /// flat in-block offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= pages_per_block()`.
    #[must_use]
    pub fn page_at_offset(&self, block: BlockAddr, offset: usize) -> PageAddr {
        assert!(offset < self.pages_per_block() as usize, "page offset {offset} out of range");
        let ppl = self.pages_per_lwl() as usize;
        let lwl = LwlId((offset / ppl) as u32);
        let pt = PageType::from_index(self.cell, (offset % ppl) as u32)
            .expect("offset % pages_per_lwl is a valid page type");
        block.wl(lwl).page(pt)
    }

    /// Inverse of [`Geometry::page_index`]: the page address at a flat
    /// array-wide index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= total_pages()`.
    #[must_use]
    pub fn page_at_index(&self, index: usize) -> PageAddr {
        assert!((index as u64) < self.total_pages(), "page index {index} out of range");
        let ppb = self.pages_per_block() as usize;
        let bpp = self.blocks_per_plane as usize;
        let planes = usize::from(self.planes_per_chip);
        let (block, offset) = (index / ppb, index % ppb);
        let group = block / bpp;
        let addr = BlockAddr::new(
            ChipId((group / planes) as u16),
            PlaneId((group % planes) as u16),
            BlockId((block % bpp) as u32),
        );
        self.page_at_offset(addr, offset)
    }

    /// Number of independently schedulable chip/plane groups (one command
    /// queue per plane of every chip).
    #[must_use]
    pub fn chip_plane_groups(&self) -> usize {
        usize::from(self.chips) * usize::from(self.planes_per_chip)
    }

    /// Flat index of a block's chip/plane group, in `0..chip_plane_groups()`.
    #[must_use]
    pub fn chip_plane_index(&self, addr: BlockAddr) -> usize {
        usize::from(addr.chip.0) * usize::from(self.planes_per_chip) + usize::from(addr.plane.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_matches_section_vi() {
        let g = Geometry::paper_platform();
        assert_eq!(g.lwls_per_block(), 384);
        assert_eq!(g.pages_per_block(), 1152);
        assert_eq!(g.pages_per_lwl(), 3);
    }

    #[test]
    fn lwl_layer_string_roundtrip() {
        let g = Geometry::small_test();
        for layer in 0..g.pwl_layers() {
            for s in 0..g.strings() {
                let lwl = g.lwl_of(PwlLayer(layer), StringId(s));
                assert_eq!(g.layer_of(lwl), PwlLayer(layer));
                assert_eq!(g.string_of(lwl), StringId(s));
            }
        }
    }

    #[test]
    fn lwl_order_is_layer_major() {
        let g = Geometry::small_test();
        assert_eq!(g.lwl_of(PwlLayer(0), StringId(0)), LwlId(0));
        assert_eq!(g.lwl_of(PwlLayer(0), StringId(3)), LwlId(3));
        assert_eq!(g.lwl_of(PwlLayer(1), StringId(0)), LwlId(4));
    }

    #[test]
    fn blocks_iterator_covers_everything_once() {
        let g = Geometry::new(2, 2, 3, 4, 4, CellType::Tlc);
        let all: Vec<_> = g.blocks().collect();
        assert_eq!(all.len() as u64, g.total_blocks());
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "no duplicates");
        for b in &all {
            assert!(g.contains_block(*b));
        }
    }

    #[test]
    fn block_index_is_dense_and_unique() {
        let g = Geometry::new(2, 2, 3, 4, 4, CellType::Tlc);
        let mut seen = vec![false; g.total_blocks() as usize];
        for b in g.blocks() {
            let i = g.block_index(b);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn page_offsets_round_trip_for_every_cell_type() {
        for cell in [CellType::Slc, CellType::Mlc, CellType::Tlc, CellType::Qlc] {
            let g = Geometry::new(2, 1, 2, 2, 2, cell);
            for b in g.blocks() {
                for off in 0..g.pages_per_block() as usize {
                    let ppa = g.page_at_offset(b, off);
                    assert_eq!(g.page_offset_in_block(ppa), off, "{cell:?} offset {off}");
                    let idx = g.page_index(ppa);
                    assert_eq!(g.page_at_index(idx), ppa, "{cell:?} index {idx}");
                }
            }
        }
    }

    #[test]
    fn page_index_is_dense_unique_and_block_contiguous() {
        let g = Geometry::new(2, 2, 3, 2, 2, CellType::Tlc);
        let mut seen = vec![false; g.total_pages() as usize];
        for b in g.blocks() {
            let base = g.block_index(b) * g.pages_per_block() as usize;
            for (off, lwl) in g.lwls().enumerate() {
                for (pi, pt) in PageType::for_cell(g.cell()).iter().enumerate() {
                    let ppa = b.wl(lwl).page(*pt);
                    let idx = g.page_index(ppa);
                    // Contiguous within the block, ordered by (lwl, page).
                    assert_eq!(idx, base + off * g.pages_per_lwl() as usize + pi);
                    assert!(!seen[idx], "duplicate page index {idx}");
                    seen[idx] = true;
                    // Offset/address roundtrip.
                    assert_eq!(g.page_at_offset(b, g.page_offset_in_block(ppa)), ppa);
                    assert_eq!(g.page_at_index(idx), ppa);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "page indices cover the whole array");
    }

    #[test]
    fn chip_plane_index_is_dense() {
        let g = Geometry::new(2, 3, 4, 2, 2, CellType::Slc);
        assert_eq!(g.chip_plane_groups(), 6);
        let mut seen = [false; 6];
        for b in g.blocks() {
            seen[g.chip_plane_index(b)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_index_rejects_out_of_range_lwl() {
        let g = Geometry::small_test();
        let b = BlockAddr::new(ChipId(0), PlaneId(0), BlockId(0));
        let _ = g.page_index(b.wl(LwlId(g.lwls_per_block())).page(PageType::Lsb));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn layer_of_panics_out_of_range() {
        let g = Geometry::small_test();
        let _ = g.layer_of(LwlId(g.lwls_per_block()));
    }

    #[test]
    #[should_panic(expected = "at least one chip")]
    fn zero_chips_rejected() {
        let _ = Geometry::new(0, 1, 1, 1, 1, CellType::Slc);
    }

    #[test]
    fn contains_block_rejects_out_of_range() {
        let g = Geometry::small_test();
        assert!(!g.contains_block(BlockAddr::new(ChipId(4), PlaneId(0), BlockId(0))));
        assert!(!g.contains_block(BlockAddr::new(ChipId(0), PlaneId(1), BlockId(0))));
        assert!(!g.contains_block(BlockAddr::new(ChipId(0), PlaneId(0), BlockId(64))));
    }
}
