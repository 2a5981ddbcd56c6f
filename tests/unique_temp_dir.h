// A temporary directory per test that parallel test processes never share.
//
// ctest runs every TEST as its own process, several at a time, and
// sanitizer builds may run the same suite at once. A fixed path (or one
// derived from gtest's random_seed(), which is 0 unless shuffling is on)
// is then shared by unrelated processes, which truncate and delete each
// other's files. UniqueTempDir names its directory from the pid, the
// running test and a per-process counter, and removes it on destruction.

#ifndef LOGMINE_TESTS_UNIQUE_TEMP_DIR_H_
#define LOGMINE_TESTS_UNIQUE_TEMP_DIR_H_

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace logmine::test {

class UniqueTempDir {
 public:
  UniqueTempDir() {
    static std::atomic<int> counter{0};
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "logmine_" + std::to_string(::getpid());
    if (test != nullptr) {
      name += std::string("_") + test->test_suite_name() + "_" + test->name();
    }
    name += "_" + std::to_string(counter.fetch_add(1));
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized test names carry slashes
    }
    path_ = std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~UniqueTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  UniqueTempDir(const UniqueTempDir&) = delete;
  UniqueTempDir& operator=(const UniqueTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// `name` inside the directory.
  std::string File(std::string_view name) const {
    return (path_ / name).string();
  }
  /// Names in the directory other than `keep` — e.g. temp files a
  /// writer failed to clean up.
  std::vector<std::string> FilesOtherThan(std::string_view keep = "") const {
    std::vector<std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(path_)) {
      const std::string name = entry.path().filename().string();
      if (name != keep) out.push_back(name);
    }
    return out;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace logmine::test

#endif  // LOGMINE_TESTS_UNIQUE_TEMP_DIR_H_
