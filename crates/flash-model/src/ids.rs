//! Newtype identifiers and physical addresses for the 3D NAND hierarchy.
//!
//! The hierarchy mirrors the paper's Figure 1: a package has chips, a chip
//! has planes, a plane has blocks, a block has physical word-line (PWL)
//! layers crossed with strings, and a (layer, string) pair is one logical
//! word-line (LWL) holding one page per bit of the cell type.

use std::fmt;

/// Index of a flash chip (chip-enable) within the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipId(pub u16);

/// Index of a plane within a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PlaneId(pub u16);

/// Index of a block within a plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u32);

/// Index of a physical word-line layer within a block (0..layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PwlLayer(pub u16);

/// Index of a string within a block (0..strings, typically 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StringId(pub u16);

/// Index of a logical word-line within a block (0..layers*strings).
///
/// The programming order is layer-major: `lwl = layer * strings + string`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LwlId(pub u32);

/// NAND cell technology, which determines the number of pages per LWL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellType {
    /// Single-level cell: one page per word-line.
    Slc,
    /// Multi-level cell: two pages (LSB, MSB).
    Mlc,
    /// Triple-level cell: three pages (LSB, CSB, MSB). The paper's platform.
    #[default]
    Tlc,
    /// Quad-level cell: four pages.
    Qlc,
}

impl CellType {
    /// Number of bits stored per cell, i.e. pages per logical word-line.
    #[inline]
    #[must_use]
    pub fn bits_per_cell(self) -> u32 {
        match self {
            CellType::Slc => 1,
            CellType::Mlc => 2,
            CellType::Tlc => 3,
            CellType::Qlc => 4,
        }
    }
}

/// Page significance within a logical word-line (LSB is read fastest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageType {
    /// Least significant bit page.
    Lsb,
    /// Central significant bit page (TLC and denser).
    Csb,
    /// Most significant bit page (MLC and denser).
    Msb,
    /// Top page (QLC only).
    Top,
}

impl PageType {
    /// All page types valid for a cell technology, in read order.
    #[inline]
    #[must_use]
    pub fn for_cell(cell: CellType) -> &'static [PageType] {
        match cell {
            CellType::Slc => &[PageType::Lsb],
            CellType::Mlc => &[PageType::Lsb, PageType::Msb],
            CellType::Tlc => &[PageType::Lsb, PageType::Csb, PageType::Msb],
            CellType::Qlc => &[PageType::Lsb, PageType::Csb, PageType::Msb, PageType::Top],
        }
    }

    /// Index of this page type within a word-line (0-based).
    #[inline]
    #[must_use]
    pub fn index(self) -> u32 {
        match self {
            PageType::Lsb => 0,
            PageType::Csb => 1,
            PageType::Msb => 2,
            PageType::Top => 3,
        }
    }

    /// Position of this page type within a word-line of `cell`: its index
    /// in [`PageType::for_cell`]`(cell)`, and so its in-word-line page
    /// offset. SLC, TLC and QLC slots equal [`PageType::index`]; MLC has
    /// no CSB page, so its MSB sits in slot 1. A page type `cell` does not
    /// have gets a slot of at least `cell.bits_per_cell()`, which range
    /// checks reject.
    #[inline]
    #[must_use]
    pub fn slot(self, cell: CellType) -> u32 {
        match (cell, self) {
            (CellType::Mlc, PageType::Msb) => 1,
            (CellType::Mlc, PageType::Csb) => 2,
            _ => self.index(),
        }
    }

    /// Inverse of [`PageType::slot`] for a given cell type.
    ///
    /// Returns `None` when the slot is out of range for the cell type.
    #[inline]
    #[must_use]
    pub fn from_index(cell: CellType, index: u32) -> Option<PageType> {
        PageType::for_cell(cell).get(index as usize).copied()
    }
}

/// Physical address of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr {
    /// Owning chip.
    pub chip: ChipId,
    /// Owning plane within the chip.
    pub plane: PlaneId,
    /// Block index within the plane.
    pub block: BlockId,
}

impl BlockAddr {
    /// Creates a block address from its components.
    #[must_use]
    pub fn new(chip: ChipId, plane: PlaneId, block: BlockId) -> Self {
        BlockAddr { chip, plane, block }
    }

    /// Address of a logical word-line within this block.
    #[must_use]
    pub fn wl(self, lwl: LwlId) -> WlAddr {
        WlAddr { block: self, lwl }
    }
}

/// Physical address of one logical word-line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WlAddr {
    /// Owning block.
    pub block: BlockAddr,
    /// Logical word-line within the block.
    pub lwl: LwlId,
}

impl WlAddr {
    /// Address of one page on this word-line.
    #[must_use]
    pub fn page(self, page: PageType) -> PageAddr {
        PageAddr { wl: self, page }
    }
}

/// Physical address of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr {
    /// Owning word-line.
    pub wl: WlAddr,
    /// Page significance on the word-line.
    pub page: PageType,
}

macro_rules! display_newtype {
    ($t:ty, $prefix:expr) => {
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

display_newtype!(ChipId, "CE");
display_newtype!(PlaneId, "P");
display_newtype!(BlockId, "BLK");
display_newtype!(PwlLayer, "PWL");
display_newtype!(StringId, "STR");
display_newtype!(LwlId, "WL");

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.chip, self.plane, self.block)
    }
}

impl fmt::Display for WlAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.block, self.lwl)
    }
}

impl fmt::Display for PageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageType::Lsb => "LSB",
            PageType::Csb => "CSB",
            PageType::Msb => "MSB",
            PageType::Top => "TOP",
        };
        f.write_str(s)
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.wl, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_type_page_counts() {
        assert_eq!(CellType::Slc.bits_per_cell(), 1);
        assert_eq!(CellType::Mlc.bits_per_cell(), 2);
        assert_eq!(CellType::Tlc.bits_per_cell(), 3);
        assert_eq!(CellType::Qlc.bits_per_cell(), 4);
    }

    #[test]
    fn page_types_match_cell_density() {
        for cell in [CellType::Slc, CellType::Mlc, CellType::Tlc, CellType::Qlc] {
            assert_eq!(PageType::for_cell(cell).len() as u32, cell.bits_per_cell());
        }
    }

    #[test]
    fn page_type_index_roundtrip() {
        for cell in [CellType::Slc, CellType::Mlc, CellType::Tlc, CellType::Qlc] {
            for (i, pt) in PageType::for_cell(cell).iter().enumerate() {
                assert_eq!(PageType::from_index(cell, i as u32), Some(*pt));
                assert_eq!(pt.slot(cell), i as u32, "{pt} slot in {cell:?}");
            }
            assert_eq!(PageType::from_index(cell, cell.bits_per_cell()), None);
            // Page types the cell lacks land past the word-line.
            for pt in [PageType::Lsb, PageType::Csb, PageType::Msb, PageType::Top] {
                if !PageType::for_cell(cell).contains(&pt) {
                    assert!(pt.slot(cell) >= cell.bits_per_cell(), "{pt} in {cell:?}");
                }
            }
        }
    }

    #[test]
    fn tlc_page_order_is_lsb_csb_msb() {
        assert_eq!(
            PageType::for_cell(CellType::Tlc),
            &[PageType::Lsb, PageType::Csb, PageType::Msb]
        );
    }

    #[test]
    fn address_constructors_chain() {
        let b = BlockAddr::new(ChipId(1), PlaneId(2), BlockId(3));
        let wl = b.wl(LwlId(7));
        let pg = wl.page(PageType::Csb);
        assert_eq!(pg.wl.block.chip, ChipId(1));
        assert_eq!(pg.wl.lwl, LwlId(7));
        assert_eq!(pg.page, PageType::Csb);
    }

    #[test]
    fn display_formats_are_compact() {
        let b = BlockAddr::new(ChipId(0), PlaneId(1), BlockId(25));
        assert_eq!(b.to_string(), "CE0/P1/BLK25");
        assert_eq!(b.wl(LwlId(3)).to_string(), "CE0/P1/BLK25/WL3");
        assert_eq!(b.wl(LwlId(3)).page(PageType::Msb).to_string(), "CE0/P1/BLK25/WL3/MSB");
    }

    #[test]
    fn ordering_is_lexicographic_by_fields() {
        let a = BlockAddr::new(ChipId(0), PlaneId(1), BlockId(9));
        let b = BlockAddr::new(ChipId(1), PlaneId(0), BlockId(0));
        assert!(a < b);
    }
}
