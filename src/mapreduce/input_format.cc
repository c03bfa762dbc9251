#include "mapreduce/input_format.h"

#include <algorithm>

namespace colmr {

Status ExpandInputPaths(MiniHdfs* fs, const std::vector<std::string>& paths,
                        std::vector<std::string>* files) {
  files->clear();
  for (const std::string& path : paths) {
    if (fs->Exists(path)) {
      files->push_back(path);
      continue;
    }
    std::vector<std::string> children;
    COLMR_RETURN_IF_ERROR(fs->ListDir(path, &children));
    std::vector<std::string> child_paths;
    child_paths.reserve(children.size());
    for (const std::string& child : children) {
      child_paths.push_back(path + "/" + child);
    }
    std::vector<std::string> expanded;
    COLMR_RETURN_IF_ERROR(ExpandInputPaths(fs, child_paths, &expanded));
    files->insert(files->end(), expanded.begin(), expanded.end());
  }
  std::sort(files->begin(), files->end());
  return Status::OK();
}

}  // namespace colmr
