#include "yoso/bulletin.hpp"

#include "common/json.hpp"

namespace yoso {

void Bulletin::record_post(const std::string& sender, unsigned index0, Phase phase,
                           const std::string& label, std::size_t bytes, std::size_t elements,
                           bool external) {
  ledger_->record(phase, label, bytes, elements);  // the ledger locks itself
  MutexLock lock(&mu_);
  log_.push_back(Post{sender, index0, label, bytes, elements, phase, external});
}

PostStatus Bulletin::publish(Committee& committee, unsigned index0, Phase phase,
                             const std::string& label, std::size_t bytes, std::size_t elements,
                             bool first_post_of_role, const std::vector<std::uint8_t>* payload) {
  (void)payload;  // the passive board only prices messages
  {
    MutexLock lock(&mu_);
    if (committee.name != open_committee_) {
      if (closed_committees_.count(committee.name)) {
        throw std::logic_error("YOSO violation: committee " + committee.name +
                               " re-activated after its posting window closed");
      }
      if (!open_committee_.empty()) closed_committees_.insert(open_committee_);
      open_committee_ = committee.name;
    }
  }
  // A role is spoken from its first post on; later posts in the same
  // activation window are parts of the same one-shot message.  The
  // committee object is the caller's, not board state.
  if (first_post_of_role || !committee.has_spoken(index0)) committee.speak(index0);
  record_post(committee.name, index0, phase, label, bytes, elements);
  return PostStatus::Accepted;
}

void Bulletin::publish_external(const std::string& who, Phase phase, const std::string& label,
                                std::size_t bytes, std::size_t elements,
                                const std::vector<std::uint8_t>* payload) {
  (void)payload;
  record_post(who, 0, phase, label, bytes, elements, /*external=*/true);
}

const std::vector<Post>& Bulletin::log() const {
  MutexLock lock(&mu_);
  return log_;
}

std::size_t Bulletin::posts_by(const std::string& committee) const {
  MutexLock lock(&mu_);
  std::size_t count = 0;
  for (const auto& p : log_) {
    if (p.committee == committee) ++count;
  }
  return count;
}

std::string Bulletin::report_json() const {
  std::size_t posts = 0;
  {
    MutexLock lock(&mu_);
    posts = log_.size();
  }
  json::Writer w;
  w.begin_object();
  w.field("posts", static_cast<std::uint64_t>(posts));
  w.key("ledger").raw(ledger_->report_json());
  w.end_object();
  return w.take();
}

}  // namespace yoso
