// Trajectory recording: the time series X_t of a run, optionally thinned.
#ifndef BITSPREAD_ENGINE_TRAJECTORY_H_
#define BITSPREAD_ENGINE_TRAJECTORY_H_

#include <cstdint>
#include <span>
#include <vector>

namespace bitspread {

class Trajectory {
 public:
  struct Point {
    std::uint64_t round;
    std::uint64_t ones;
  };

  // Records one point every `stride` rounds (round 0 is always recorded, and
  // engines additionally record the final round).
  explicit Trajectory(std::uint64_t stride = 1) noexcept
      : stride_(stride == 0 ? 1 : stride) {}

  void record(std::uint64_t round, std::uint64_t ones) {
    if (round % stride_ == 0) force_record(round, ones);
  }
  void force_record(std::uint64_t round, std::uint64_t ones) {
    if (!points_.empty() && points_.back().round == round) {
      points_.back().ones = ones;
      return;
    }
    points_.push_back(Point{round, ones});
  }

  // Replaces the recorded series wholesale — the snapshot/restore path, so
  // a resumed run's trajectory equals the uninterrupted run's.
  void restore(std::vector<Point> points) noexcept {
    points_ = std::move(points);
  }

  std::span<const Point> points() const noexcept { return points_; }
  bool empty() const noexcept { return points_.empty(); }
  std::size_t size() const noexcept { return points_.size(); }
  const Point& back() const noexcept { return points_.back(); }

 private:
  std::uint64_t stride_;
  std::vector<Point> points_;
};

}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_TRAJECTORY_H_
