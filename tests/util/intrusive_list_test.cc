#include "src/util/intrusive_list.h"

#include <gtest/gtest.h>

#include <vector>

namespace s3fifo {
namespace {

struct Node {
  explicit Node(int v = 0) : value(v) {}
  int value = 0;
  ListHook hook;
  ListHook hook2;
};

using List = IntrusiveList<Node, &Node::hook>;
using List2 = IntrusiveList<Node, &Node::hook2>;

TEST(IntrusiveListTest, StartsEmpty) {
  List list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.Front(), nullptr);
  EXPECT_EQ(list.Back(), nullptr);
  EXPECT_EQ(list.PopFront(), nullptr);
  EXPECT_EQ(list.PopBack(), nullptr);
}

TEST(IntrusiveListTest, PushFrontOrdering) {
  List list;
  Node a{1}, b{2}, c{3};
  list.PushFront(&a);
  list.PushFront(&b);
  list.PushFront(&c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.Front(), &c);
  EXPECT_EQ(list.Back(), &a);
}

TEST(IntrusiveListTest, PushBackOrdering) {
  List list;
  Node a{1}, b{2};
  list.PushBack(&a);
  list.PushBack(&b);
  EXPECT_EQ(list.Front(), &a);
  EXPECT_EQ(list.Back(), &b);
}

TEST(IntrusiveListTest, PopBackIsFifoForPushFront) {
  List list;
  std::vector<Node> nodes(5);
  for (int i = 0; i < 5; ++i) {
    nodes[i].value = i;
    list.PushFront(&nodes[i]);
  }
  for (int i = 0; i < 5; ++i) {
    Node* n = list.PopBack();
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->value, i);  // oldest first
  }
  EXPECT_TRUE(list.empty());
}

TEST(IntrusiveListTest, RemoveMiddle) {
  List list;
  Node a{1}, b{2}, c{3};
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.Remove(&b);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.Older(&a), &c);
  EXPECT_FALSE(list.Contains(&b));
  EXPECT_TRUE(list.Contains(&a));
}

TEST(IntrusiveListTest, MoveToFront) {
  List list;
  Node a{1}, b{2}, c{3};
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.MoveToFront(&c);
  EXPECT_EQ(list.Front(), &c);
  EXPECT_EQ(list.Back(), &b);
  EXPECT_EQ(list.size(), 3u);
}

TEST(IntrusiveListTest, MoveToBack) {
  List list;
  Node a{1}, b{2};
  list.PushBack(&a);
  list.PushBack(&b);
  list.MoveToBack(&a);
  EXPECT_EQ(list.Back(), &a);
}

TEST(IntrusiveListTest, OlderNewerWalk) {
  List list;
  Node a{1}, b{2}, c{3};
  list.PushFront(&a);
  list.PushFront(&b);
  list.PushFront(&c);  // order: c b a (front to back)
  EXPECT_EQ(list.Older(&c), &b);
  EXPECT_EQ(list.Older(&b), &a);
  EXPECT_EQ(list.Older(&a), nullptr);
  EXPECT_EQ(list.Newer(&a), &b);
  EXPECT_EQ(list.Newer(&c), nullptr);
}

TEST(IntrusiveListTest, NodeCanLiveOnTwoLists) {
  List list;
  List2 list2;
  Node a{1};
  list.PushFront(&a);
  list2.PushFront(&a);
  EXPECT_TRUE(list.Contains(&a));
  EXPECT_TRUE(list2.Contains(&a));
  list.Remove(&a);
  EXPECT_FALSE(list.Contains(&a));
  EXPECT_TRUE(list2.Contains(&a));
}

TEST(IntrusiveListTest, HookUnlinkedAfterRemove) {
  List list;
  Node a{1};
  list.PushFront(&a);
  list.Remove(&a);
  EXPECT_FALSE(a.hook.linked());
  // Re-insertable after removal.
  list.PushBack(&a);
  EXPECT_TRUE(a.hook.linked());
}

TEST(IntrusiveListTest, ClearEmptiesList) {
  List list;
  std::vector<Node> nodes(10);
  for (auto& n : nodes) {
    list.PushFront(&n);
  }
  list.Clear();
  EXPECT_TRUE(list.empty());
  for (auto& n : nodes) {
    EXPECT_FALSE(n.hook.linked());
  }
}

}  // namespace
}  // namespace s3fifo
