//! The superpage parity (RAIN) stripe format: where a super word-line's
//! parity page sits, its XOR tag, the closure check a patrol scan runs and
//! the sibling walk that rebuilds a lost page.

use crate::device::readable_word_line;
use crate::Result;
use flash_model::{BlockAddr, FlashArray, PageAddr, PageOob, RetryModel};

/// The parity slot `(member, page)` of a super word-line over `members`
/// members of `pages_per_lwl` pages: the last page of the last member, the
/// last position staged (page `i` lands on member `i % members`).
pub(crate) fn slot(members: usize, pages_per_lwl: usize) -> (usize, usize) {
    (members - 1, pages_per_lwl - 1)
}

/// The parity payload: the XOR of every data and filler tag of the stripe,
/// so the whole stripe XORs to zero and a lost page is its survivors' XOR.
pub(crate) fn tag(data: &[u64]) -> u64 {
    data.iter().fold(0, |acc, &t| acc ^ t)
}

/// The closure check a patrol scan runs over one stripe as it reads: the
/// XOR of every data and filler tag it passes, and the parity page.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Closure {
    xor: u64,
    parity: Option<PageAddr>,
}

impl Closure {
    /// Folds one page in by its OOB record (a data or filler page's LPN is
    /// its payload tag); `false` for the parity page, which holds no data.
    pub(crate) fn visit(&mut self, page: PageAddr, oob: PageOob) -> bool {
        if oob.is_parity() {
            self.parity = Some(page);
            return false;
        }
        self.xor ^= oob.lpn;
        true
    }

    /// Reads the parity page: whether the stripe closes (the parity tag is
    /// the XOR of the others), the read's block and µs. `None` when no
    /// parity page was seen (its member was dropped): nothing is protected.
    pub(crate) fn verify(&self, array: &FlashArray) -> Result<Option<(bool, BlockAddr, f64)>> {
        let Some(page) = self.parity else { return Ok(None) };
        let (tag, us) = array.read_page(page)?;
        Ok(Some((tag == self.xor, page.wl.block, us)))
    }
}

/// One stripe rebuild: whether it yielded the payload, the pages read, the
/// slowest member's read time (siblings read chip-parallel) and the sum,
/// µs, and each member that read anything with its time, in stripe order.
#[derive(Debug, Default)]
pub(crate) struct Rebuild {
    pub ok: bool,
    pub reads: u64,
    pub critical_us: f64,
    pub fanout_us: f64,
    pub member_us: Vec<(BlockAddr, f64)>,
}

/// Rebuilds `lpn`, lost at `lost`, from the rest of its super word-line
/// across `members`, each page read at the retry ladder's cost at the lost
/// page's age `age_hours` (a stripe programs at once). It fails on a second
/// uncorrectable sibling, an unwritten or torn sibling word-line, or a
/// missing parity page.
pub(crate) fn rebuild(
    array: &FlashArray,
    retry: &RetryModel,
    members: &[BlockAddr],
    lost: PageAddr,
    lpn: u64,
    age_hours: f64,
) -> Result<Rebuild> {
    let mut out = Rebuild::default();
    let (mut acc, mut intact, mut saw_parity) = (0u64, true, false);
    for &member in members {
        let mut us = 0.0;
        let Some(line) = readable_word_line(array, member.wl(lost.wl.lwl))? else {
            intact = false;
            continue;
        };
        for k in (0..line.pages()).filter(|&k| line.page(k) != lost) {
            let (tag, t) = line.read(k);
            let bits = line.expected_error_bits(k, age_hours);
            us += retry.read_latency_us(t, bits);
            out.reads += 1;
            if retry.is_uncorrectable(bits) {
                intact = false;
            } else {
                acc ^= tag;
                saw_parity |= line.oob(k).is_parity();
            }
        }
        if us > 0.0 {
            out.member_us.push((member, us));
        }
        out.critical_us = out.critical_us.max(us);
        out.fanout_us += us;
    }
    out.ok = intact && saw_parity && acc == lpn;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::ActiveSuperblock;
    use crate::recovery::{Spor, SporConfig};
    use flash_model::{BlockId, ChipId, FlashConfig, LwlId, PlaneId};

    /// Four members of three-page word-lines, the first super word-line
    /// programmed with parity over LPNs 100..111.
    fn striped() -> (FlashArray, Vec<BlockAddr>, Vec<(u64, PageAddr)>) {
        let config =
            FlashConfig::builder().chips(4).blocks_per_plane(4).pwl_layers(2).strings(4).build();
        let mut array = FlashArray::new(config, 1);
        let members: Vec<BlockAddr> =
            (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
        for &m in &members {
            array.erase_block(m).unwrap();
        }
        let mut active = ActiveSuperblock::new(members.clone(), 0, array.geometry(), true);
        for lpn in 100..111 {
            active.stage(lpn);
        }
        let mut spor = Spor::new(&SporConfig::default());
        let assignments = active.program_superwl(&mut array, &mut spor).unwrap().assignments;
        (array, members, assignments)
    }

    #[test]
    fn parity_slot_is_the_last_staged_position() {
        for (members, ppl) in [(1, 2), (2, 1), (4, 3), (8, 4)] {
            let last = members * ppl - 1;
            assert_eq!(slot(members, ppl), (last % members, last / members));
        }
    }

    #[test]
    fn parity_closure_verifies_a_written_stripe_and_flags_a_short_one() {
        let (array, members, _) = striped();
        let mut closure = Closure::default();
        let mut data_pages = 0;
        for &m in &members {
            let line = array.word_line(m.wl(LwlId(0))).unwrap();
            for k in 0..line.pages() {
                data_pages += usize::from(closure.visit(line.page(k), line.oob(k)));
            }
        }
        assert_eq!(data_pages, 11, "the parity page holds no data");
        let (closes, block, us) = closure.verify(&array).unwrap().unwrap();
        assert!(closes);
        assert_eq!(block, members[3], "parity sits on the last member");
        assert!(us > 0.0);
        // Missing one data tag breaks the closure; missing the parity page
        // leaves nothing to verify.
        let mut short = Closure::default();
        let line = array.word_line(members[3].wl(LwlId(0))).unwrap();
        for k in 1..line.pages() {
            short.visit(line.page(k), line.oob(k));
        }
        assert!(!short.verify(&array).unwrap().unwrap().0);
        assert!(Closure::default().verify(&array).unwrap().is_none());
    }

    #[test]
    fn parity_rebuild_reads_every_sibling_and_recovers_the_lost_tag() {
        let (array, members, assignments) = striped();
        let retry = RetryModel::default();
        for &(lpn, lost) in &assignments {
            let r = rebuild(&array, &retry, &members, lost, lpn, 0.0).unwrap();
            assert!(r.ok, "lpn {lpn}");
            assert_eq!(r.reads, 11);
            assert_eq!(r.member_us.len(), 4);
            let slowest = r.member_us.iter().fold(0.0f64, |a, &(_, us)| a.max(us));
            assert_eq!(r.critical_us.to_bits(), slowest.to_bits());
            assert!(r.fanout_us > r.critical_us);
        }
        // The wrong tag, or a stripe short of its parity member, fails.
        let (lpn, lost) = assignments[0];
        assert!(!rebuild(&array, &retry, &members, lost, lpn ^ 1, 0.0).unwrap().ok);
        let r = rebuild(&array, &retry, &members[..3], lost, lpn, 0.0).unwrap();
        assert!(!r.ok, "no parity page survives");
        assert_eq!(r.reads, 8);
    }
}
