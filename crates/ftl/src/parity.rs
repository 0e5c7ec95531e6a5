//! The superpage parity (RAIN) stripe format: where a super word-line's
//! parity page sits, its XOR tag, the closure check a patrol scan runs and
//! the sibling walk that rebuilds a lost page.

use crate::media::Media;
use crate::Result;
use flash_model::{BlockAddr, BlockHandle, PageAddr, PageOob, RetryModel};

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
/// XOR of every data and filler tag it passes, and the parity page with
/// the index of its member.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Closure {
    xor: u64,
    parity: Option<(usize, PageAddr)>,
}

impl Closure {
    /// Folds one page of stripe member `member` in by its OOB record (a
    /// data or filler page's LPN is its payload tag); `false` for the
    /// parity page, which holds no data.
    #[inline]
    pub(crate) fn visit(&mut self, member: usize, page: PageAddr, oob: PageOob) -> bool {
        if oob.is_parity() {
            self.parity = Some((member, page));
            return false;
        }
        self.xor ^= oob.lpn;
        true
    }

    /// Reads the parity page through its member's handle in `members` and
    /// charges the read to `media`: whether the stripe closes (the parity
    /// tag is the XOR of the others) and the read's µs. `None` when no
    /// parity page was seen (its member was dropped): nothing is protected.
    pub(crate) fn verify(
        &self,
        media: &mut Media,
        members: &mut [BlockHandle],
    ) -> Result<Option<(bool, f64)>> {
        let Some((member, page)) = self.parity else { return Ok(None) };
        let array = media.array();
        let line = array.line(&mut members[member], page.wl.lwl)?;
        let k = page.page.slot(array.geometry().cell());
        let (tag, us) = (line.peek(k), line.read(k));
        media.read(page.wl.block, us);
        Ok(Some((tag == self.xor, us)))
    }
}

/// One stripe rebuild: whether it yielded the payload, the pages read, and
/// the slowest member's read time (siblings read chip-parallel) and the
/// sum, µs.
#[derive(Debug, Default)]
pub(crate) struct Rebuild {
    pub ok: bool,
    pub reads: u64,
    pub critical_us: f64,
    pub fanout_us: f64,
}

/// Rebuilds `lpn`, lost at `lost`, from the rest of its super word-line
/// across `members`, each page read at the retry ladder's cost at the lost
/// page's age `age_hours` (a stripe programs at once), and charges each
/// member that read anything its summed time, in stripe order. It fails on
/// a second uncorrectable sibling, an unwritten or torn sibling word-line,
/// or a missing parity page.
pub(crate) fn rebuild(
    media: &mut Media,
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
        let array = media.array();
        let Some(line) = array.readable_line(&mut array.block(member)?, lost.wl.lwl)? else {
            intact = false;
            continue;
        };
        for k in (0..line.pages()).filter(|&k| line.page(k) != lost) {
            let t = line.read(k);
            let bits = line.expected_error_bits(k, age_hours);
            us += retry.read_latency_us(t, bits);
            out.reads += 1;
            if retry.is_uncorrectable(bits) {
                intact = false;
            } else {
                acc ^= line.peek(k);
                saw_parity |= line.oob(k).is_parity();
            }
        }
        if us > 0.0 {
            media.read(member, us);
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
    use crate::active::{ActiveSuperblock, ProgramBuffers};
    use crate::recovery::{Spor, SporConfig};
    use flash_model::{BlockId, ChipId, FlashArray, FlashConfig, LwlId, PlaneId};

    /// Four members of three-page word-lines on four one-plane chips, the
    /// first super word-line programmed with parity over LPNs 100..111;
    /// the media charges from here on.
    fn striped() -> (Media, Vec<BlockAddr>, Vec<(u64, PageAddr)>) {
        let config =
            FlashConfig::builder().chips(4).blocks_per_plane(4).pwl_layers(2).strings(4).build();
        let mut media = Media::new(FlashArray::new(config, 1));
        let members: Vec<BlockAddr> =
            (0..4).map(|c| BlockAddr::new(ChipId(c), PlaneId(0), BlockId(0))).collect();
        for &m in &members {
            media.erase(m).unwrap();
        }
        let mut active = ActiveSuperblock::new(members.clone(), 0, media.array().geometry(), true);
        for lpn in 100..111 {
            active.stage(lpn);
        }
        let mut spor = Spor::new(&SporConfig::default());
        let mut buf = ProgramBuffers::default();
        active.program_superwl(&mut media, &mut spor, &mut buf).unwrap();
        media.set_timed(true);
        (media, members, buf.assignments)
    }

    /// Each chip's time charged to `media` since the last drain.
    fn charged(media: &mut Media) -> Vec<f64> {
        let (mut busy, mut total) = (vec![0.0; 5], vec![0.0; 5]);
        media.charge(0.0, &mut busy, &mut total);
        total.truncate(4);
        total
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
        let (mut media, members, _) = striped();
        let array = media.array();
        let mut handles: Vec<BlockHandle> =
            members.iter().map(|&m| array.block(m).unwrap()).collect();
        let mut closure = Closure::default();
        let mut data_pages = 0;
        for (i, &m) in members.iter().enumerate() {
            let line = array.word_line(m.wl(LwlId(0))).unwrap();
            for k in 0..line.pages() {
                data_pages += usize::from(closure.visit(i, line.page(k), line.oob(k)));
            }
        }
        assert_eq!(data_pages, 11, "the parity page holds no data");
        let (closes, us) = closure.verify(&mut media, &mut handles).unwrap().unwrap();
        assert!(closes);
        assert!(us > 0.0);
        assert_eq!(charged(&mut media), [0.0, 0.0, 0.0, us], "parity sits on the last member");
        // Missing one data tag breaks the closure; missing the parity page
        // leaves nothing to verify, and reads nothing.
        let mut short = Closure::default();
        let line = media.array().word_line(members[3].wl(LwlId(0))).unwrap();
        for k in 1..line.pages() {
            short.visit(3, line.page(k), line.oob(k));
        }
        assert!(!short.verify(&mut media, &mut handles).unwrap().unwrap().0);
        charged(&mut media);
        assert!(Closure::default().verify(&mut media, &mut handles).unwrap().is_none());
        assert_eq!(charged(&mut media), [0.0; 4]);
    }

    #[test]
    fn parity_rebuild_reads_every_sibling_and_recovers_the_lost_tag() {
        let (mut media, members, assignments) = striped();
        let retry = RetryModel::default();
        for &(lpn, lost) in &assignments {
            let r = rebuild(&mut media, &retry, &members, lost, lpn, 0.0).unwrap();
            assert!(r.ok, "lpn {lpn}");
            assert_eq!(r.reads, 11);
            // Each member is charged its own summed reads, once.
            let member_us = charged(&mut media);
            assert!(member_us.iter().all(|&us| us > 0.0), "every member read something");
            let slowest = member_us.iter().fold(0.0f64, |a, &us| a.max(us));
            assert_eq!(r.critical_us.to_bits(), slowest.to_bits());
            assert!(r.fanout_us > r.critical_us);
        }
        // The wrong tag, or a stripe short of its parity member, fails.
        let (lpn, lost) = assignments[0];
        assert!(!rebuild(&mut media, &retry, &members, lost, lpn ^ 1, 0.0).unwrap().ok);
        let r = rebuild(&mut media, &retry, &members[..3], lost, lpn, 0.0).unwrap();
        assert!(!r.ok, "no parity page survives");
        assert_eq!(r.reads, 8);
    }
}
