#include "formats/detect.h"

#include <cctype>

#include "cif/cif.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "formats/text/text_format.h"

namespace colmr {

Status DetectInputFormat(MiniHdfs* fs, const std::string& dataset_path,
                         std::shared_ptr<InputFormat>* format,
                         std::string* format_name) {
  std::vector<std::string> children;
  COLMR_RETURN_IF_ERROR(fs->ListDir(dataset_path, &children));

  // CIF datasets are directories of s<digits> split-directories.
  for (const std::string& child : children) {
    if (child.size() >= 2 && child[0] == 's' &&
        std::isdigit(static_cast<unsigned char>(child[1])) &&
        fs->Exists(dataset_path + "/" + child + "/_schema")) {
      *format = std::make_shared<ColumnInputFormat>();
      if (format_name != nullptr) *format_name = "cif";
      return Status::OK();
    }
  }

  // Row formats: sniff the first data file's magic.
  for (const std::string& child : children) {
    if (!child.empty() && child[0] == '_') continue;
    const std::string file = dataset_path + "/" + child;
    if (!fs->Exists(file)) continue;
    std::unique_ptr<FileReader> reader;
    COLMR_RETURN_IF_ERROR(fs->Open(file, ReadContext{}, &reader));
    std::string magic;
    COLMR_RETURN_IF_ERROR(reader->Read(0, 4, &magic));
    if (magic == "SEQ6") {
      *format = std::make_shared<SeqInputFormat>();
      if (format_name != nullptr) *format_name = "seq";
    } else if (magic == "RCF1") {
      *format = std::make_shared<RcFileInputFormat>();
      if (format_name != nullptr) *format_name = "rcfile";
    } else {
      *format = std::make_shared<TextInputFormat>();
      if (format_name != nullptr) *format_name = "txt";
    }
    return Status::OK();
  }
  return Status::NotFound("no data files under " + dataset_path);
}

}  // namespace colmr
