// Status / Result error-handling primitives.

#include <gtest/gtest.h>

#include "common/status.h"
#include "test_util.h"

namespace gpujoin {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad radix bits");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad radix bits");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad radix bits");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(StatusTest, LifecyclePredicates) {
  const Status cancelled = Status::Cancelled("stop");
  EXPECT_TRUE(cancelled.IsCancelled());
  EXPECT_FALSE(cancelled.IsDeadlineExceeded());
  EXPECT_TRUE(cancelled.IsLifecycleStop());

  const Status deadline = Status::DeadlineExceeded("late");
  EXPECT_FALSE(deadline.IsCancelled());
  EXPECT_TRUE(deadline.IsDeadlineExceeded());
  EXPECT_TRUE(deadline.IsLifecycleStop());

  EXPECT_FALSE(Status::OK().IsLifecycleStop());
  EXPECT_FALSE(Status::ResourceExhausted("oom").IsLifecycleStop());
  EXPECT_TRUE(Status::ResourceExhausted("oom").IsResourceExhausted());
}

TEST(StatusTest, SchedulerStatuses) {
  const Status over = Status::TenantOverQuota("capped");
  EXPECT_TRUE(over.IsTenantOverQuota());
  EXPECT_FALSE(over.IsResourceExhausted());
  EXPECT_FALSE(over.IsLifecycleStop());
}

TEST(StatusTest, UnavailableIsRetryableNotALifecycleStop) {
  // The message convention for transient faults: fault kind + attempt
  // count, so operators can log "what happened" without a side channel.
  const Status s = Status::Unavailable("kernel_fault: injected (attempt 2)");
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("kernel_fault"), std::string::npos);
  EXPECT_NE(s.message().find("attempt 2"), std::string::npos);
  // Retryable: distinct from OOM/ResourceExhausted (the work fits, the
  // backend hiccuped) and from the deliberate lifecycle stops.
  EXPECT_FALSE(s.IsResourceExhausted());
  EXPECT_FALSE(s.IsLifecycleStop());
  EXPECT_FALSE(Status::OK().IsUnavailable());
  EXPECT_FALSE(Status::ResourceExhausted("oom").IsUnavailable());
  EXPECT_EQ(s.ToString(),
            "Unavailable: kernel_fault: injected (attempt 2)");
}

TEST(StatusTest, LifecycleToString) {
  EXPECT_EQ(Status::Cancelled("stop").ToString(), "Cancelled: stop");
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "DeadlineExceeded: late");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Internal("a"), Status::Internal("a"));
  EXPECT_FALSE(Status::Internal("a") == Status::Internal("b"));
  EXPECT_FALSE(Status::Internal("a") == Status::InvalidArgument("a"));
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCancelled), "Cancelled");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kTenantOverQuota),
               "TenantOverQuota");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.status(), Status::OK());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  GPUJOIN_ASSIGN_OR_RETURN(int h, Half(v));
  GPUJOIN_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto err = Quarter(6);  // 6/2 = 3, odd -> error on the second step.
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int v) {
  GPUJOIN_RETURN_IF_ERROR(FailIfNegative(v));
  GPUJOIN_RETURN_IF_ERROR(FailIfNegative(v - 10));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chain(20).ok());
  EXPECT_FALSE(Chain(5).ok());
  EXPECT_FALSE(Chain(-1).ok());
}

}  // namespace
}  // namespace gpujoin
