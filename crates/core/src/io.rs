//! Persistence for characterization data: save a [`BlockPool`] to CSV and
//! load it back, so a (slow, real-hardware-style) characterization pass can
//! be reused across experiment runs — the paper's workflow of collecting
//! once per P/E point and analyzing many times.
//!
//! Format, one row per block:
//!
//! ```text
//! pool,chip,plane,block,pe,tbers_us,tprog0,tprog1,...
//! ```

use crate::profile::{BlockPool, BlockProfile};
use flash_model::{BlockAddr, BlockId, ChipId, PlaneId};
use std::fmt;
use std::io::{BufRead, Write};

/// Errors from pool (de)serialization.
#[derive(Debug)]
pub enum PoolIoError {
    /// A row could not be parsed.
    Malformed {
        /// 1-based row number (excluding the header).
        row: usize,
        /// Problem description.
        reason: String,
    },
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// Rows describe an inconsistent pool (see inner error).
    Pool(crate::PvError),
}

impl fmt::Display for PoolIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolIoError::Malformed { row, reason } => write!(f, "pool CSV row {row}: {reason}"),
            PoolIoError::Io(e) => write!(f, "pool CSV I/O failed: {e}"),
            PoolIoError::Pool(e) => write!(f, "pool CSV is inconsistent: {e}"),
        }
    }
}

impl std::error::Error for PoolIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolIoError::Io(e) => Some(e),
            PoolIoError::Pool(e) => Some(e),
            PoolIoError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for PoolIoError {
    fn from(e: std::io::Error) -> Self {
        PoolIoError::Io(e)
    }
}

/// Writes a pool as CSV.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_pool<W: Write>(pool: &BlockPool, mut w: W) -> Result<(), PoolIoError> {
    writeln!(w, "# strings={} pools={}", pool.strings(), pool.pool_count())?;
    writeln!(w, "pool,chip,plane,block,pe,tbers_us,tprog_us...")?;
    for p in 0..pool.pool_count() {
        for b in pool.pool(p) {
            let a = b.addr();
            write!(w, "{p},{},{},{},{},{}", a.chip.0, a.plane.0, a.block.0, b.pe(), b.tbers_us())?;
            for t in b.tprog_us() {
                write!(w, ",{t}")?;
            }
            writeln!(w)?;
        }
    }
    Ok(())
}

/// Reads a pool back from CSV produced by [`write_pool`].
///
/// # Errors
///
/// Returns [`PoolIoError`] on malformed rows (a latency that is not finite,
/// or carries a minus sign, `-0` included, is malformed), I/O failure or
/// inconsistent pool shapes.
pub fn read_pool<R: BufRead>(r: R) -> Result<BlockPool, PoolIoError> {
    let mut strings: u16 = 4;
    let mut pools: usize = 0;
    let mut out: Option<BlockPool> = None;
    let mut row_no = 0usize;
    for line in r.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(meta) = trimmed.strip_prefix('#') {
            for field in meta.split_whitespace() {
                if let Some(v) = field.strip_prefix("strings=") {
                    strings = v.parse().map_err(|e| PoolIoError::Malformed {
                        row: 0,
                        reason: format!("bad strings= header: {e}"),
                    })?;
                }
                if let Some(v) = field.strip_prefix("pools=") {
                    pools = v.parse().map_err(|e| PoolIoError::Malformed {
                        row: 0,
                        reason: format!("bad pools= header: {e}"),
                    })?;
                }
            }
            continue;
        }
        if trimmed.starts_with("pool,") {
            continue; // column header
        }
        row_no += 1;
        let malformed = |reason: String| PoolIoError::Malformed { row: row_no, reason };
        let mut fields = trimmed.split(',');
        let mut next_num = |name: &str| -> Result<f64, PoolIoError> {
            fields
                .next()
                .ok_or_else(|| malformed(format!("missing {name}")))?
                .trim()
                .parse::<f64>()
                .map_err(|e| malformed(format!("bad {name}: {e}")))
        };
        let pool_idx = next_num("pool")? as usize;
        let chip = next_num("chip")? as u16;
        let plane = next_num("plane")? as u16;
        let block = next_num("block")? as u32;
        let pe = next_num("pe")? as u32;
        let latency = |name: &str, t: f64| {
            // A sign test, so `-0` is refused too: `total_cmp` would order
            // it before `0` while `>=` treats the two as equal.
            if t.is_finite() && t.is_sign_positive() {
                Ok(t)
            } else {
                Err(malformed(format!(
                    "{name} must be a finite, non-negative latency (not -0), got {t}"
                )))
            }
        };
        let tbers = latency("tbers_us", next_num("tbers_us")?)?;
        let tprog: Result<Vec<f64>, _> = fields
            .map(|f| {
                let t = f
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| malformed(format!("bad tprog value: {e}")))?;
                latency("tprog value", t)
            })
            .collect();
        let tprog = tprog?;
        if tprog.is_empty() {
            return Err(malformed("row has no word-line latencies".to_string()));
        }
        let pool = out.get_or_insert_with(|| BlockPool::new(pools.max(pool_idx + 1), strings));
        let addr = BlockAddr::new(ChipId(chip), PlaneId(plane), BlockId(block));
        pool.push(pool_idx, BlockProfile::new(addr, pe, tprog, tbers))
            .map_err(PoolIoError::Pool)?;
    }
    out.ok_or(PoolIoError::Malformed { row: 0, reason: "no rows".to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Characterizer;
    use flash_model::{FlashArray, FlashConfig};

    #[test]
    fn roundtrip_preserves_every_profile() {
        let config = FlashConfig::small_test();
        let array = FlashArray::new(config.clone(), 5);
        let pool = Characterizer::new(&config).snapshot(array.latency_model(), 100);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        let loaded = read_pool(buf.as_slice()).unwrap();
        assert_eq!(loaded.pool_count(), pool.pool_count());
        assert_eq!(loaded.len(), pool.len());
        assert_eq!(loaded.strings(), pool.strings());
        for p in pool.iter() {
            let q = loaded.profile(p.addr()).unwrap();
            assert_eq!(q.tprog_us(), p.tprog_us());
            assert_eq!(q.tbers_us(), p.tbers_us());
            assert_eq!(q.pe(), p.pe());
        }
    }

    #[test]
    fn rejects_empty_input() {
        assert!(read_pool(b"" as &[u8]).is_err());
    }

    #[test]
    fn rejects_rows_without_latencies() {
        let err = read_pool(b"0,0,0,0,0,3000\n" as &[u8]).unwrap_err();
        assert!(err.to_string().contains("no word-line latencies"), "{err}");
    }

    #[test]
    fn rejects_garbage_with_row_number() {
        let data = b"# strings=4 pools=1\n0,0,0,0,0,3000,1.0,2.0,3.0,4.0\nnot,a,row\n" as &[u8];
        let err = read_pool(data).unwrap_err();
        assert!(err.to_string().contains("row 2"), "{err}");
    }

    #[test]
    fn rejects_non_finite_and_negative_latencies_with_row_number() {
        let good = "0,0,0,0,0,3000,1.0,2.0,3.0,4.0";
        for bad in [
            "0,0,0,1,0,3000,1.0,NaN,3.0,4.0",
            "0,0,0,1,0,3000,1.0,inf,3.0,4.0",
            "0,0,0,1,0,3000,1.0,-2.0,3.0,4.0",
            "0,0,0,1,0,NaN,1.0,2.0,3.0,4.0",
            "0,0,0,1,0,-inf,1.0,2.0,3.0,4.0",
            "0,0,0,1,0,-1,1.0,2.0,3.0,4.0",
            "0,0,0,1,0,3000,1.0,-0,3.0,4.0",
            "0,0,0,1,0,-0.0,1.0,2.0,3.0,4.0",
        ] {
            let data = format!("# strings=4 pools=1\n{good}\n{bad}\n");
            match read_pool(data.as_bytes()) {
                Err(PoolIoError::Malformed { row: 2, reason }) => {
                    assert!(reason.contains("finite, non-negative"), "{bad}: {reason}");
                }
                other => panic!("{bad}: expected a row-2 rejection, got {other:?}"),
            }
        }
    }

    /// A pool CSV with a NaN latency, 2 pools x 40 blocks x 32 word-lines,
    /// the shape on which LWL-RANK's sort panicked under a partial order:
    /// the reader rejects it, naming the row.
    #[test]
    fn nan_pool_csv_is_rejected_before_assembly() {
        let mut csv = String::from("# strings=4 pools=2\n");
        for p in 0..2 {
            for b in 0..40 {
                csv.push_str(&format!("{p},{p},0,{b},0,3000"));
                for wl in 0..32 {
                    let t = if p == 1 && b == 17 && wl == 5 {
                        f64::NAN
                    } else {
                        1700.0 + f64::from((b * 7 + wl * 3) % 5) * 18.4
                    };
                    csv.push_str(&format!(",{t}"));
                }
                csv.push('\n');
            }
        }
        let err = read_pool(csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("row 58"), "{err}");
    }

    #[test]
    fn assemblies_work_on_loaded_pools() {
        use crate::assembly::{Assembler, QstrMed};
        let config = FlashConfig::small_test();
        let array = FlashArray::new(config.clone(), 2);
        let pool = Characterizer::new(&config).snapshot(array.latency_model(), 0);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        let loaded = read_pool(buf.as_slice()).unwrap();
        let sbs = QstrMed::new().assemble(&loaded);
        assert_eq!(sbs.len(), loaded.min_pool_len());
    }
}
