//! Where a run's results go (§V-A, Fig. 2: "written as produced").
//!
//! The window loop's output stage hands every (sample, batch) to one
//! [`ResultSink`] the moment it is compressed and keeps nothing, so what a
//! run holds is set by the batch, not by the chromosome. Two sinks exist:
//! [`FileSink`] — the CLI's — writes each sample's stream (and its
//! optional text rendering) through to disk as it arrives, under a
//! temporary name that becomes the real one only when the run has
//! succeeded; [`Collect`] keeps everything, for the callers that compare
//! results in memory.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use seqio::result::{SnpRow, SnpTable};

/// The consumer of a run's results.
pub trait ResultSink {
    /// The next batch of `sample` (its index in input order): the batch's
    /// windows, in reference order, and the frames they compressed to —
    /// the next bytes of that sample's result file. An error stops the
    /// run; it should name what could not be written.
    fn write_batch(
        &mut self,
        sample: usize,
        tables: Vec<SnpTable>,
        compressed: &[u8],
    ) -> io::Result<()>;
}

/// The sink that keeps everything: per sample, in input order, every
/// window's table and the whole compressed stream.
#[derive(Debug, Default)]
pub struct Collect {
    /// `tables[s]`: sample `s`'s windows, in reference order.
    pub tables: Vec<Vec<SnpTable>>,
    /// `compressed[s]`: sample `s`'s result file.
    pub compressed: Vec<Vec<u8>>,
}

impl Collect {
    /// Sample `sample`'s windows flattened into rows (for comparisons).
    pub fn rows(&self, sample: usize) -> Vec<SnpRow> {
        let tables = self.tables[sample].iter();
        tables.flat_map(|t| t.rows.iter().copied()).collect()
    }
}

impl ResultSink for Collect {
    fn write_batch(
        &mut self,
        sample: usize,
        tables: Vec<SnpTable>,
        compressed: &[u8],
    ) -> io::Result<()> {
        if self.tables.len() <= sample {
            self.tables.resize_with(sample + 1, Vec::new);
            self.compressed.resize_with(sample + 1, Vec::new);
        }
        self.tables[sample].extend(tables);
        self.compressed[sample].extend_from_slice(compressed);
        Ok(())
    }
}

/// One destination file, written under `<path>.tmp` until [`Dest::commit`]
/// renames it: `<path>` is absent, or whole and from a run that succeeded,
/// at every instant — a killed run leaves at most the `.tmp`. A `path` that
/// exists and is no regular file (`/dev/null`, a pipe) is written in place:
/// renaming over a device node would replace it.
#[derive(Debug)]
struct Dest {
    path: PathBuf,
    /// `None`: written in place, nothing to rename or remove.
    tmp: Option<PathBuf>,
    w: BufWriter<File>,
}

impl Dest {
    fn create(path: &Path) -> io::Result<Dest> {
        let in_place = fs::metadata(path).is_ok_and(|m| !m.is_file());
        let tmp = (!in_place).then(|| {
            let mut name = path.as_os_str().to_owned();
            name.push(".tmp");
            PathBuf::from(name)
        });
        let file = File::create(tmp.as_deref().unwrap_or(path)).map_err(|e| named(path, e))?;
        Ok(Dest {
            path: path.to_owned(),
            tmp,
            w: BufWriter::new(file),
        })
    }

    /// Dropping a `BufWriter` discards write errors: flush first, then
    /// give the file its name.
    fn commit(mut self) -> io::Result<()> {
        self.w.flush().map_err(|e| named(&self.path, e))?;
        if let Some(tmp) = self.tmp.take() {
            fs::rename(&tmp, &self.path).map_err(|e| named(&self.path, e))?;
        }
        Ok(())
    }
}

impl Drop for Dest {
    /// Not committed: the run failed, and nothing of it is left.
    fn drop(&mut self) {
        if let Some(tmp) = &self.tmp {
            fs::remove_file(tmp).ok();
        }
    }
}

fn named(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// The sink behind `gsnp call`: per sample a `.gsnp` file and, if asked
/// for, the text rendering of the same tables, both written while the run
/// executes. Opened before the run reads anything, so a destination that
/// cannot be written is an error before the first window, not after the
/// last. Every error names the path.
#[derive(Debug)]
pub struct FileSink {
    /// Per sample: the compressed stream, and the text if asked for.
    samples: Vec<(Dest, Option<Dest>)>,
}

impl FileSink {
    /// Open `(gsnp, text)` for every sample, in sample order.
    pub fn create(paths: &[(PathBuf, Option<PathBuf>)]) -> io::Result<FileSink> {
        let mut samples = Vec::with_capacity(paths.len());
        for (gsnp, text) in paths {
            let text = text.as_deref().map(Dest::create).transpose()?;
            samples.push((Dest::create(gsnp)?, text));
        }
        Ok(FileSink { samples })
    }

    /// The run succeeded: flush everything and rename each file onto its
    /// destination. Dropping the sink instead removes what was written.
    pub fn commit(self) -> io::Result<()> {
        for (gsnp, text) in self.samples {
            text.map_or(Ok(()), Dest::commit)?;
            gsnp.commit()?;
        }
        Ok(())
    }
}

impl ResultSink for FileSink {
    fn write_batch(
        &mut self,
        sample: usize,
        tables: Vec<SnpTable>,
        compressed: &[u8],
    ) -> io::Result<()> {
        let (gsnp, text) = &mut self.samples[sample];
        gsnp.w
            .write_all(compressed)
            .map_err(|e| named(&gsnp.path, e))?;
        if let Some(text) = text {
            for table in &tables {
                table
                    .write_text(&mut text.w)
                    .map_err(|e| named(&text.path, io::Error::other(e)))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(start: u64) -> SnpTable {
        SnpTable::new("c", start, vec![SnpRow::default(); 3])
    }

    #[test]
    fn collect_keeps_every_sample_s_tables_and_bytes_in_order() {
        let mut sink = Collect::default();
        sink.write_batch(1, vec![table(0)], b"ab").unwrap();
        sink.write_batch(0, vec![table(0), table(3)], b"xyz")
            .unwrap();
        sink.write_batch(1, vec![table(3)], b"c").unwrap();
        assert_eq!(sink.compressed, [b"xyz".to_vec(), b"abc".to_vec()]);
        assert_eq!(sink.tables[1], [table(0), table(3)]);
        assert_eq!(sink.rows(0).len(), 6);
    }

    #[test]
    fn a_file_sink_names_its_files_only_on_commit() {
        let dir = std::env::temp_dir().join(format!("gsnp_sink_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (gsnp, text) = (dir.join("o.gsnp"), dir.join("o.txt"));
        let tmp = dir.join("o.gsnp.tmp");
        let paths = [(gsnp.clone(), Some(text.clone()))];
        fs::write(&gsnp, b"an earlier run").unwrap();

        // A run that fails: the earlier file is untouched, no `.tmp` stays.
        let mut sink = FileSink::create(&paths).unwrap();
        sink.write_batch(0, vec![table(0)], b"partial").unwrap();
        assert!(tmp.exists() && !text.exists());
        drop(sink);
        assert_eq!(fs::read(&gsnp).unwrap(), b"an earlier run");
        assert!(!tmp.exists() && !text.exists() && !dir.join("o.txt.tmp").exists());

        // A run that succeeds.
        let mut sink = FileSink::create(&paths).unwrap();
        sink.write_batch(0, vec![table(0)], b"whole").unwrap();
        sink.commit().unwrap();
        assert_eq!(fs::read(&gsnp).unwrap(), b"whole");
        assert_eq!(fs::read_to_string(&text).unwrap().lines().count(), 3);
        assert!(!tmp.exists());

        // A destination that cannot be opened is an error naming it.
        let missing = dir.join("no/such/o.gsnp");
        let err = FileSink::create(&[(missing.clone(), None)]).unwrap_err();
        assert!(err.to_string().contains(&missing.display().to_string()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_device_is_written_in_place_and_its_errors_name_it() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            eprintln!("skipping: no /dev/full on this platform");
            return;
        }
        let mut sink = FileSink::create(&[(full.to_owned(), None)]).unwrap();
        assert!(!Path::new("/dev/full.tmp").exists());
        // Buffered: the write may pass, the commit's flush cannot.
        let err = sink
            .write_batch(0, vec![table(0)], &[7; 1 << 16])
            .and_then(|()| sink.commit())
            .unwrap_err();
        assert!(err.to_string().starts_with("/dev/full: "), "{err}");
        assert!(full.exists());
    }
}
