//! Opening `--telemetry` output streams — and reading them back — with
//! friendly failure modes.

use fhdnn::telemetry::jsonl;
use fhdnn::telemetry::{Recorder, Telemetry};

/// Opens a JSONL telemetry stream at `path`, creating missing parent
/// directories first. Failures come back as one-line diagnostics naming
/// the flag, the path, and the failing step — never a panic or a bare
/// io error.
///
/// # Errors
///
/// Returns a printable message when the parent directory cannot be
/// created or the file cannot be opened for writing.
pub fn open_telemetry(path: &str) -> Result<Telemetry, String> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() && !parent.exists() {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "--telemetry {path}: cannot create parent directory {}: {e}",
                    parent.display()
                )
            })?;
        }
    }
    Recorder::to_jsonl(path).map_err(|e| format!("--telemetry {path}: cannot open: {e}"))
}

/// Reads a recorded `--from` JSONL stream, tolerating a truncated tail:
/// a recording cut off mid-line (crashed run, partial copy, filled disk)
/// still replays all of its complete lines. Lines the one stream reader
/// (`jsonl::read_records`) cannot decode to a record — invalid UTF-8 is
/// replaced first; a cut tail or foreign text is counted — produce one
/// stderr warning naming the path and the skipped-line count; the replay
/// views sit on the same reader and skip the same lines, so the rendered
/// output stays a pure function of the decodable records.
///
/// # Errors
///
/// Returns a printable message only when the file cannot be read at all.
pub fn read_jsonl_lenient(path: &str) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let text = String::from_utf8_lossy(&bytes).into_owned();
    let skipped = jsonl::read_records(&text, |_, _, _| {});
    if skipped > 0 {
        eprintln!(
            "warning: {path}: skipped {skipped} unparseable JSONL line(s) \
             (truncated or corrupt recording?)"
        );
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fhdnn-cli-telemetry-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn creates_missing_parent_directories() {
        let dir = temp_dir("nested");
        let path = dir.join("deep/run.jsonl");
        let tel = open_telemetry(path.to_str().unwrap()).unwrap();
        tel.incr("x", 1);
        tel.flush();
        assert!(path.exists(), "stream file should exist");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_reader_tolerates_truncated_tail() {
        let dir = temp_dir("truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        // A healthy line followed by a recording cut off mid-line.
        let healthy = r#"{"ts":1,"kind":"counter","name":"x","fields":{"delta":1}}"#;
        std::fs::write(&path, format!("{healthy}\n{{\"ts\":2,\"kind\":\"cou")).unwrap();
        let text = read_jsonl_lenient(path.to_str().unwrap()).unwrap();
        assert!(text.starts_with(healthy));
        assert!(text.contains("cou"), "partial tail is preserved: {text}");

        let missing = dir.join("absent.jsonl");
        let err = read_jsonl_lenient(missing.to_str().unwrap()).unwrap_err();
        assert!(err.starts_with("read "), "diagnostic names the op: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_path_yields_clean_diagnostic() {
        let dir = temp_dir("blocked");
        std::fs::create_dir_all(&dir).unwrap();
        // The target's "parent" is a regular file, so neither directory
        // creation nor opening can succeed.
        let clash = dir.join("not-a-dir");
        std::fs::write(&clash, b"file").unwrap();
        let target = clash.join("run.jsonl");
        let err = open_telemetry(target.to_str().unwrap()).unwrap_err();
        assert!(
            err.starts_with("--telemetry "),
            "diagnostic names the flag: {err}"
        );
        assert!(
            err.contains("run.jsonl"),
            "diagnostic names the path: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
