//! Provenance stamped into every benchmark record: the source revision,
//! the machine's parallelism, the journal filesystem and peak memory.

use std::path::{Path, PathBuf};

/// The git revision of the checkout in the working directory, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    read_revision(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned())
}

fn read_revision(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_owned())
    })
}

/// Cores the OS reports as available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Filesystem type of the mount holding `path` (from
/// `/proc/self/mountinfo`); `"unknown"` where that is unreadable.
pub fn filesystem_type(path: &Path) -> String {
    let path: PathBuf = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_owned());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else { continue };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0.0`
/// where `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn filesystem_of_cwd_is_known() {
        assert_ne!(filesystem_type(Path::new(".")), "");
    }
}
