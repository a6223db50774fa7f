// Checked sidecar-file writing, shared by every report/table/trace writer.
//
// ofstream happily swallows write errors: on a full disk or an unwritable
// path the stream just sets failbit and the program exits 0 with a
// truncated report.  Every sidecar writer in this repo opens through
// open_sidecar and finishes through finish_sidecar so both failure modes
// (cannot open, write failed) surface as std::runtime_error with the path.
#pragma once

#include <fstream>
#include <string>

namespace mlaas {

/// Open `path` for writing; throws std::runtime_error("<what>: cannot
/// write <path>") when the stream cannot be opened.
std::ofstream open_sidecar(const std::string& path, const char* what);

/// Flush and verify the stream: throws std::runtime_error naming `path`
/// when any write failed (full disk, I/O error, unwritable device).
void finish_sidecar(std::ofstream& out, const std::string& path, const char* what);

/// JSON string-body escape shared by every JSON writer: quotes, backslashes
/// and control characters (\n, \r, \t; the rest as \u00XX).
std::string json_escape(const std::string& s);

}  // namespace mlaas
